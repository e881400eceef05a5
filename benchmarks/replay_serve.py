"""Traffic replay against the serving layer: latency and backpressure.

Seeded replay profiles run against a live in-process server
(:class:`~repro.serve.server.ServerThread`, real sockets, cached
skylines):

* **steady** — a generously provisioned queue absorbing the full mixed
  trace; every request should complete with 200, and the p50/p99
  round-trip latencies price the serving overhead itself;
* **burst** — the same arrival process against a deliberately tight
  queue with short per-request deadlines, so the bounded queue must
  shed load; the row records the rejection (429) and expiry (504)
  rates alongside the latencies of the requests that did run;
* **smoke** — the CI gate: a seeded 100-request trace (seed 7) against
  a queue provisioned for all of it.  It writes no row; it asserts the
  service-level contract instead:

  - every request completes with 200 (nothing is rejected, nothing
    expires, nothing errors);
  - client-observed p99 latency stays under a deliberately generous
    bound — this catches pathological serialization, not regressions
    of a few milliseconds;
  - ``/metrics`` accounting is conserved: enqueued == dequeued, zero
    rejected/expired, engine counters flowed through.

Every profile checks ``/health`` first and asserts a clean shutdown
(no orphaned child process, no engine thread left alive).  steady and
burst replay the *same* seeded trace shape (mixed skyline / group /
clique over two graphs, bursty arrivals), so the pair isolates what
the queue bound changes; their headline numbers merge into
``BENCH_skyline.json`` as ``bench="serve"`` rows.

Usage::

    PYTHONPATH=src python benchmarks/replay_serve.py \
        [--profile steady burst smoke] [--requests N] [--seed S] \
        [--graphs karate bombing_proxy]
"""

from __future__ import annotations

import argparse
import multiprocessing
import os
import sys
from typing import NamedTuple, Optional

from _serve_trace import (
    generate_trace,
    live_engine_threads,
    replay,
    summarize,
)

from repro.harness.benchjson import (
    BENCH_FILENAME,
    bench_entry,
    write_bench_json,
)
from repro.serve import GraphRegistry, ServeConfig, ServerThread

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

P99_BOUND_S = 20.0  # generous: catches serialization pathologies only


class Profile(NamedTuple):
    requests: int
    seed: int
    gap_s: float
    capacity: Optional[int]  # None: one slot per request
    timeout_s: Optional[float]
    clients: int


PROFILES = {
    # steady: provisioned queue, paced arrivals — prices the overhead.
    "steady": Profile(
        requests=200, seed=0, gap_s=0.02, capacity=128, timeout_s=None,
        clients=8,
    ),
    # burst: 4x more concurrent clients than queue slots and near-zero
    # gaps, so the bounded queue must shed load (429/504 rows).
    "burst": Profile(
        requests=200, seed=0, gap_s=0.002, capacity=8, timeout_s=0.25,
        clients=16,
    ),
    # smoke: the CI contract, asserted instead of recorded.
    "smoke": Profile(
        requests=100, seed=7, gap_s=0.005, capacity=None, timeout_s=None,
        clients=8,
    ),
}


def run_profile(name: str, graphs, profile: Profile) -> dict:
    trace = generate_trace(
        graphs,
        profile.requests,
        seed=profile.seed,
        mean_gap_s=profile.gap_s,
        timeout_s=profile.timeout_s,
    )
    registry = GraphRegistry()
    for graph in graphs:
        registry.register_spec(graph)
    config = ServeConfig(
        port=0, queue_capacity=profile.capacity or profile.requests
    )
    with ServerThread(registry, config) as handle:
        status, health = handle.request("GET", "/health")
        assert status == 200 and health["status"] == "ok", health
        outcomes, wall_s = replay(handle, trace, max_clients=profile.clients)
        _, metrics = handle.request("GET", "/metrics")

    # Clean shutdown: nothing survives the context manager.
    assert multiprocessing.active_children() == []
    assert live_engine_threads() == []

    summary = summarize(outcomes, wall_s)
    if summary["server_errors"]:
        raise SystemExit(f"{name}: {summary['server_errors']} server errors")
    if name == "smoke":
        check_smoke(summary, metrics, profile.requests)
    return summary


def check_smoke(summary: dict, metrics: dict, requests: int) -> None:
    """The smoke profile's all-200 contract."""
    assert summary["ok"] == requests, summary["statuses"]
    assert summary["rejected"] == 0 and summary["expired"] == 0, summary
    p99_s = summary["p99_ms"] / 1000.0
    assert p99_s < P99_BOUND_S, f"p99 {p99_s:.2f}s over {P99_BOUND_S}s bound"

    queue = metrics["queue"]
    assert queue["enqueued_total"] == requests, queue
    assert queue["dequeued_total"] == requests, queue
    assert queue["rejected_total"] == 0 and queue["expired_total"] == 0, queue
    assert queue["depth"] == 0, queue
    assert metrics["engine"]["counters"].get("pair_tests", 0) > 0, (
        "engine counters did not flow into /metrics"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--profile",
        nargs="+",
        choices=sorted(PROFILES),
        default=["steady", "burst"],
    )
    parser.add_argument("--requests", type=int, help="override the profile's")
    parser.add_argument("--seed", type=int, help="override the profile's")
    parser.add_argument(
        "--graphs", nargs="+", default=["karate", "bombing_proxy"]
    )
    args = parser.parse_args(argv)

    instance = "+".join(args.graphs)
    entries = []
    for name in args.profile:
        profile = PROFILES[name]._replace(
            requests=args.requests or PROFILES[name].requests,
            seed=PROFILES[name].seed if args.seed is None else args.seed,
        )
        summary = run_profile(name, args.graphs, profile)
        print(
            f"{name}: {summary['ok']}/{summary['requests']} ok, "
            f"p50={summary['p50_ms']:.1f}ms p99={summary['p99_ms']:.1f}ms, "
            f"rejected={summary['rejected']} expired={summary['expired']} "
            f"(rate={summary['rejection_rate']:.1%}), "
            f"wall={summary['wall_s']:.2f}s"
        )
        if name == "smoke":
            continue
        entries.append(
            bench_entry(
                bench="serve",
                instance=instance,
                algorithm=f"replay-{name}(n={summary['requests']})",
                wall_s=summary["wall_s"],
                extra={
                    "p50_ms": round(summary["p50_ms"], 2),
                    "p99_ms": round(summary["p99_ms"], 2),
                    "ok": summary["ok"],
                    "rejected": summary["rejected"],
                    "expired": summary["expired"],
                    "rejection_rate": round(summary["rejection_rate"], 4),
                },
            )
        )

    if entries:
        path = os.path.join(REPO_ROOT, BENCH_FILENAME)
        write_bench_json(path, entries)
        print(f"merged {len(entries)} entries into {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
