"""Live-server chaos replay: availability and correctness under faults.

Two seeded profiles run against a live in-process server
(:class:`~repro.serve.server.ServerThread`, real sockets, cached
skylines, the supervision layer active in both), and their
headline numbers merge into ``BENCH_skyline.json`` as
``bench="chaos_serve"`` rows:

* **faultfree** — the supervised worker loop with no fault plan; every
  request must complete 200 with zero rebuilds and zero degraded
  answers, and its p50 prices the supervision overhead itself (target:
  within 2% of the pre-supervision ``bench="serve"`` steady row — the
  row lands next to it in BENCH_skyline.json for exactly that
  comparison);
* **chaos** — the same trace shape with a seeded
  :class:`~repro.harness.faults.ServeFaultPlan` injecting
  engine exceptions, session poisoning and slow queries at a 15%
  dispatch rate.  The row records availability
  (fraction of requests answered 200, degraded included), session
  rebuilds, and p99 under fault.

Both profiles assert the full self-healing contract:

* availability >= 95% under chaos (100% fault-free);
* **every** 200 — degraded or not — is bit-for-bit the direct API
  result for its exact parameters (graphs are immutable, so the
  degraded cache can never be stale-wrong, only stale-marked);
* queue accounting is conserved (enqueued == dequeued + expired);
* shutdown is clean: no orphaned child process and no engine thread
  left alive.

Usage::

    PYTHONPATH=src python benchmarks/replay_chaos_serve.py \
        [--requests N] [--seed S] [--graphs karate bombing_proxy]
"""

from __future__ import annotations

import argparse
import multiprocessing
import os
import sys

from _serve_trace import (
    direct_references,
    generate_trace,
    live_engine_threads,
    replay,
    summarize,
    verify_200s,
)

from repro.harness.faults import ServeFaultPlan
from repro.harness.benchjson import (
    BENCH_FILENAME,
    bench_entry,
    write_bench_json,
)
from repro.serve import (
    GraphRegistry,
    ServeConfig,
    ServerThread,
    SupervisionConfig,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

AVAILABILITY_FLOOR = 0.95
CHAOS_RATE = 0.15

#: Supervision tuned for a dense replay: two immediate retries and a
#: breaker that opens after 3 straight failures but re-probes in a
#: quarter second.
SUPERVISION = dict(
    query_deadline_s=30.0,
    max_query_retries=2,
    breaker_threshold=3,
    breaker_cooldown_s=0.25,
)


def run_profile(profile, graphs, num_requests, seed, references):
    fault_plan = None
    if profile == "chaos":
        fault_plan = ServeFaultPlan.seeded(
            seed + 1,
            graphs,
            max_calls=4 * num_requests,
            rate=CHAOS_RATE,
        )
    trace = generate_trace(graphs, num_requests, seed=seed, mean_gap_s=0.01)
    registry = GraphRegistry()
    for graph in graphs:
        registry.register_spec(graph)
    config = ServeConfig(
        port=0,
        queue_capacity=num_requests,
        supervision=SupervisionConfig(**SUPERVISION),
    )
    with ServerThread(registry, config, fault_plan=fault_plan) as handle:
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

    verified, degraded = verify_200s(trace, outcomes, references)
    assert verified == summary["ok"]
    supervision = metrics["supervision"]
    summary["availability"] = summary["ok"] / summary["requests"]
    summary["degraded"] = degraded
    summary["rebuilds"] = sum(supervision["rebuilds"].values())
    summary["injected_faults"] = sum(
        supervision["injected_faults"].values()
    )

    if profile == "chaos":
        assert summary["availability"] >= AVAILABILITY_FLOOR, summary
    else:
        assert summary["availability"] == 1.0, summary["statuses"]
        assert summary["rebuilds"] == 0 and degraded == 0, summary
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--graphs", nargs="+", default=["karate", "bombing_proxy"]
    )
    args = parser.parse_args(argv)

    trace = generate_trace(args.graphs, args.requests, seed=args.seed)
    references = direct_references(trace)
    instance = "+".join(args.graphs)
    entries = []
    for profile in ("faultfree", "chaos"):
        summary = run_profile(
            profile, args.graphs, args.requests, args.seed, references
        )
        print(
            f"{profile}: {summary['ok']}/{summary['requests']} ok "
            f"(availability={summary['availability']:.1%}, "
            f"{summary['degraded']} degraded), "
            f"faults={summary['injected_faults']} "
            f"rebuilds={summary['rebuilds']}, "
            f"p50={summary['p50_ms']:.1f}ms p99={summary['p99_ms']:.1f}ms, "
            f"wall={summary['wall_s']:.2f}s"
        )
        entries.append(
            bench_entry(
                bench="chaos_serve",
                instance=instance,
                algorithm=f"replay-{profile}(n={summary['requests']})",
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
