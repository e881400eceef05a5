"""CI serving smoke: a 100-request trace, zero errors, clean shutdown.

Plain script (no pytest) so CI can run it in seconds.  It brings up
the full serving stack — registry, skyline caches, bounded queue,
asyncio HTTP front — on an ephemeral port, replays a seeded mixed
trace of 100 requests from concurrent clients, and asserts the
service-level contract:

* every request completes with 200 (the queue is provisioned for the
  trace, so nothing is rejected, nothing expires, nothing errors);
* client-observed p99 latency stays under a deliberately generous
  bound — this catches pathological serialization, not regressions of
  a few milliseconds;
* ``/metrics`` accounting is conserved: enqueued == dequeued, zero
  rejected/expired, engine counters flowed through;
* shutdown is clean: no orphaned child process and no engine thread
  left alive.

Usage::

    PYTHONPATH=src python benchmarks/smoke_serve.py
"""

from __future__ import annotations

import multiprocessing
import sys

from _serve_trace import (
    generate_trace,
    live_engine_threads,
    replay,
    summarize,
)

from repro.serve import GraphRegistry, ServeConfig, ServerThread

GRAPHS = ("karate", "bombing_proxy")
NUM_REQUESTS = 100
P99_BOUND_S = 20.0  # generous: catches serialization pathologies only


def main() -> int:
    trace = generate_trace(GRAPHS, NUM_REQUESTS, seed=7, mean_gap_s=0.005)
    registry = GraphRegistry()
    for name in GRAPHS:
        registry.register_spec(name)
    config = ServeConfig(port=0, queue_capacity=NUM_REQUESTS)
    with ServerThread(registry, config) as handle:
        status, health = handle.request("GET", "/health")
        assert status == 200 and health["status"] == "ok", health
        outcomes, wall_s = replay(handle, trace, max_clients=8)
        _, metrics = handle.request("GET", "/metrics")

    summary = summarize(outcomes, wall_s)
    assert summary["ok"] == NUM_REQUESTS, summary["statuses"]
    assert summary["server_errors"] == 0, summary["statuses"]
    assert summary["rejected"] == 0 and summary["expired"] == 0, summary
    p99_s = summary["p99_ms"] / 1000.0
    assert p99_s < P99_BOUND_S, f"p99 {p99_s:.2f}s over {P99_BOUND_S}s bound"

    queue = metrics["queue"]
    assert queue["enqueued_total"] == NUM_REQUESTS, queue
    assert queue["dequeued_total"] == NUM_REQUESTS, queue
    assert queue["rejected_total"] == 0 and queue["expired_total"] == 0, queue
    assert queue["depth"] == 0, queue
    assert metrics["engine"]["counters"].get("pair_tests", 0) > 0, (
        "engine counters did not flow into /metrics"
    )

    # Clean shutdown: nothing survives the context manager.
    assert multiprocessing.active_children() == []
    assert live_engine_threads() == []

    print(
        f"serve smoke: {NUM_REQUESTS} requests, all 200, "
        f"p50={summary['p50_ms']:.1f}ms p99={summary['p99_ms']:.1f}ms, "
        f"wall={wall_s:.2f}s, clean shutdown"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
