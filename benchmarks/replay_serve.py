"""Traffic replay against the serving layer: latency and backpressure.

Two seeded replay profiles run against a live in-process server
(:class:`~repro.serve.server.ServerThread`, real sockets, cached
skylines), and their headline numbers merge into
``BENCH_skyline.json`` as ``bench="serve"`` rows:

* **steady** — a generously provisioned queue absorbing the full mixed
  trace; every request should complete with 200, and the p50/p99
  round-trip latencies price the serving overhead itself;
* **burst** — the same arrival process against a deliberately tight
  queue with short per-request deadlines, so the bounded queue must
  shed load; the row records the rejection (429) and expiry (504)
  rates alongside the latencies of the requests that did run.

Both profiles replay the *same* seeded trace shape (mixed skyline /
group / clique over two graphs, bursty arrivals), so the pair isolates
what the queue bound changes.

Usage::

    PYTHONPATH=src python benchmarks/replay_serve.py \
        [--requests N] [--seed S] [--graphs karate bombing_proxy]
"""

from __future__ import annotations

import argparse
import os
import sys

from _serve_trace import generate_trace, replay, summarize

from repro.harness.benchjson import (
    BENCH_FILENAME,
    bench_entry,
    write_bench_json,
)
from repro.serve import GraphRegistry, ServeConfig, ServerThread

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PROFILES = {
    # name -> (queue_capacity, timeout_s, gap_s, clients)
    # steady: provisioned queue, paced arrivals — prices the overhead.
    # burst: 4x more concurrent clients than queue slots and near-zero
    # gaps, so the bounded queue must shed load (429/504 rows).
    "steady": (128, None, 0.02, 8),
    "burst": (8, 0.25, 0.002, 16),
}


def run_profile(name: str, graphs, num_requests: int, seed: int) -> dict:
    capacity, timeout_s, gap_s, clients = PROFILES[name]
    trace = generate_trace(
        graphs,
        num_requests,
        seed=seed,
        mean_gap_s=gap_s,
        timeout_s=timeout_s,
    )
    registry = GraphRegistry()
    for graph in graphs:
        registry.register_spec(graph)
    config = ServeConfig(port=0, queue_capacity=capacity)
    with ServerThread(registry, config) as handle:
        outcomes, wall_s = replay(handle, trace, max_clients=clients)
    return summarize(outcomes, wall_s)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--graphs", nargs="+", default=["karate", "bombing_proxy"]
    )
    args = parser.parse_args(argv)

    instance = "+".join(args.graphs)
    entries = []
    for profile in PROFILES:
        summary = run_profile(profile, args.graphs, args.requests, args.seed)
        print(
            f"{profile}: {summary['ok']}/{summary['requests']} ok, "
            f"p50={summary['p50_ms']:.1f}ms p99={summary['p99_ms']:.1f}ms, "
            f"rejected={summary['rejected']} expired={summary['expired']} "
            f"(rate={summary['rejection_rate']:.1%}), "
            f"wall={summary['wall_s']:.2f}s"
        )
        if summary["server_errors"]:
            raise SystemExit(
                f"{profile}: {summary['server_errors']} server errors"
            )
        entries.append(
            bench_entry(
                bench="serve",
                instance=instance,
                algorithm=f"replay-{profile}(n={summary['requests']})",
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

    path = os.path.join(REPO_ROOT, BENCH_FILENAME)
    write_bench_json(path, entries)
    print(f"merged {len(entries)} entries into {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
