"""Live-server chaos replay: availability and correctness under faults.

Seeded profiles run against a live in-process server
(:class:`~repro.serve.server.ServerThread`, real sockets, cached
skylines, the supervision layer active in all of them):

* **faultfree** — the supervised worker loop with no fault plan; every
  request must complete 200 with zero rebuilds and zero degraded
  answers, and its p50 prices the supervision overhead itself (the
  row lands next to the ``bench="serve"`` steady row in
  BENCH_skyline.json for that comparison);
* **chaos** — the same 200-request trace shape (seed 0) with a seeded
  :class:`~repro.harness.faults.ServeFaultPlan` injecting engine
  exceptions, session poisoning and slow queries at a 15% dispatch
  rate.  The row records availability (fraction of requests answered
  200, degraded included), session rebuilds, and p99 under fault;
* **smoke** — the CI gate: a denser 100-request trace (seed 11, 0.005 s
  mean gap) under a 20% fault rate, recorded as its own
  ``bench="chaos_serve_smoke"`` row, so a smoke run replaces only that
  row.  Fully seeded: a red run replays identically with the same
  command locally.

faultfree and chaos record ``bench="chaos_serve"`` rows.  Every
profile asserts the full self-healing contract:

* availability >= 95% under faults (100% fault-free, with no rebuild
  and no degraded answer);
* **every** 200 — degraded or not — is bit-for-bit the direct API
  result for its exact parameters, computed with no server in between
  (graphs are immutable, so the degraded cache can never be
  stale-wrong, only stale-marked);
* under faults, the chaos genuinely happened and was healed, not
  dodged: injected-fault and rebuild counters are non-zero in
  ``/metrics``;
* queue accounting is conserved (enqueued == dequeued + expired);
* shutdown is clean: no orphaned child process and no engine thread
  left alive.

A failing profile raises before any row is written.

Usage::

    PYTHONPATH=src python benchmarks/replay_chaos_serve.py \
        [--profile faultfree chaos smoke] [--requests N] [--seed S] \
        [--graphs karate bombing_proxy]
"""

from __future__ import annotations

import argparse
import multiprocessing
import os
import sys
from typing import NamedTuple, Optional

from _serve_trace import (
    direct_references,
    generate_trace,
    live_engine_threads,
    replay,
    summarize,
    verify_200s,
)

from repro.harness.benchjson import (
    BENCH_FILENAME,
    bench_entry,
    write_bench_json,
)
from repro.harness.faults import ServeFaultPlan
from repro.serve import (
    GraphRegistry,
    ServeConfig,
    ServerThread,
    SupervisionConfig,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

AVAILABILITY_FLOOR = 0.95


class Profile(NamedTuple):
    bench: str
    label: str  # the row's algorithm prefix
    requests: int
    seed: int
    gap_s: float
    fault_seed_offset: Optional[int]  # None: no fault plan
    rate: float


PROFILES = {
    "faultfree": Profile(
        bench="chaos_serve", label="replay-faultfree", requests=200, seed=0,
        gap_s=0.01, fault_seed_offset=None, rate=0.0,
    ),
    "chaos": Profile(
        bench="chaos_serve", label="replay-chaos", requests=200, seed=0,
        gap_s=0.01, fault_seed_offset=1, rate=0.15,
    ),
    "smoke": Profile(
        bench="chaos_serve_smoke", label="smoke-chaos", requests=100,
        seed=11, gap_s=0.005, fault_seed_offset=0, rate=0.2,
    ),
}

#: Supervision tuned for a dense replay: two immediate retries and a
#: breaker that opens after 3 straight failures but re-probes in a
#: quarter second.
SUPERVISION = SupervisionConfig(
    query_deadline_s=30.0,
    max_query_retries=2,
    breaker_threshold=3,
    breaker_cooldown_s=0.25,
)


def run_profile(graphs, profile: Profile) -> dict:
    trace = generate_trace(
        graphs, profile.requests, seed=profile.seed, mean_gap_s=profile.gap_s
    )
    references = direct_references(trace)
    faulted = profile.fault_seed_offset is not None
    fault_plan = None
    if faulted:
        fault_plan = ServeFaultPlan.seeded(
            profile.seed + profile.fault_seed_offset,
            graphs,
            max_calls=4 * profile.requests,
            rate=profile.rate,
        )
    registry = GraphRegistry()
    for graph in graphs:
        registry.register_spec(graph)
    config = ServeConfig(
        port=0, queue_capacity=profile.requests, supervision=SUPERVISION
    )
    with ServerThread(registry, config, fault_plan=fault_plan) as handle:
        status, health = handle.request("GET", "/health")
        assert status == 200 and health["status"] == "ok", health
        outcomes, wall_s = replay(
            handle, trace, max_clients=8, capture_docs=True
        )
        _, metrics = handle.request("GET", "/metrics")

    # Nothing survives the context manager, fault plan or not.
    assert multiprocessing.active_children() == []
    assert live_engine_threads() == []

    summary = summarize(outcomes, wall_s)
    queue = metrics["queue"]
    assert queue["enqueued_total"] == (
        queue["dequeued_total"] + queue["expired_total"]
    ), queue
    assert queue["depth"] == 0, queue

    # Bit-for-bit: every 200 (degraded included) equals the direct API.
    verified, degraded = verify_200s(trace, outcomes, references)
    assert verified == summary["ok"]
    supervision = metrics["supervision"]
    summary["availability"] = summary["ok"] / summary["requests"]
    summary["degraded"] = degraded
    summary["rebuilds"] = sum(supervision["rebuilds"].values())
    summary["injected_faults"] = sum(
        supervision["injected_faults"].values()
    )

    if faulted:
        assert summary["availability"] >= AVAILABILITY_FLOOR, summary
        assert summary["injected_faults"] > 0, "the plan injected nothing"
        assert summary["rebuilds"] > 0, "faults fired but nothing was rebuilt"
    else:
        assert summary["availability"] == 1.0, summary["statuses"]
        assert summary["rebuilds"] == 0 and degraded == 0, summary
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--profile",
        nargs="+",
        choices=sorted(PROFILES),
        default=["faultfree", "chaos"],
    )
    parser.add_argument("--requests", type=int, help="override the profile's")
    parser.add_argument("--seed", type=int, help="override the profile's")
    parser.add_argument(
        "--graphs", nargs="+", default=["karate", "bombing_proxy"]
    )
    args = parser.parse_args(argv)

    entries = []
    for name in args.profile:
        profile = PROFILES[name]._replace(
            requests=args.requests or PROFILES[name].requests,
            seed=PROFILES[name].seed if args.seed is None else args.seed,
        )
        summary = run_profile(args.graphs, profile)
        print(
            f"{name}: {summary['ok']}/{summary['requests']} ok "
            f"(availability={summary['availability']:.1%}, "
            f"{summary['degraded']} degraded), "
            f"faults={summary['injected_faults']} "
            f"rebuilds={summary['rebuilds']}, "
            f"p50={summary['p50_ms']:.1f}ms p99={summary['p99_ms']:.1f}ms, "
            f"wall={summary['wall_s']:.2f}s"
        )
        entries.append(
            bench_entry(
                bench=profile.bench,
                instance="+".join(args.graphs),
                algorithm=f"{profile.label}(n={summary['requests']})",
                wall_s=summary["wall_s"],
                extra={
                    "availability": round(summary["availability"], 4),
                    "ok": summary["ok"],
                    "degraded": summary["degraded"],
                    "injected_faults": summary["injected_faults"],
                    "rebuilds": summary["rebuilds"],
                    "p50_ms": round(summary["p50_ms"], 2),
                    "p99_ms": round(summary["p99_ms"], 2),
                    "statuses": summary["statuses"],
                },
            )
        )

    path = os.path.join(REPO_ROOT, BENCH_FILENAME)
    write_bench_json(path, entries)
    print(f"merged {len(entries)} entries into {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
