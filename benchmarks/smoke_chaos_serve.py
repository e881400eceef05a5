"""CI chaos smoke: a faulted 100-request trace, self-healing verified.

Plain script (no pytest) so CI can run it in seconds.  It brings up
the full self-healing serving stack — registry, skyline caches,
supervised engine, per-graph circuit breakers — on an ephemeral port,
replays a seeded 100-request mixed trace while a seeded
:class:`~repro.harness.faults.ServeFaultPlan` injects engine
exceptions, session poisoning and slow queries,
and asserts the resilience contract:

* availability >= 95%: at least 95 of the 100 requests answer 200
  (degraded 200s count — they are marked and correct);
* **every** 200 is bit-for-bit equal to the direct API result for its
  exact parameters, computed with no server in between;
* faults genuinely fired and were healed: injected-fault and rebuild
  counters are non-zero in ``/metrics``;
* queue accounting is conserved: enqueued == dequeued + expired;
* shutdown is clean: no orphaned child process and no engine thread
  left alive.

The headline numbers merge into ``BENCH_skyline.json`` as a
``bench="chaos_serve_smoke"`` row (its own bench name, so a smoke run
replaces only its own row and leaves ``replay_chaos_serve.py``'s
``chaos_serve`` rows alone) so the CI artifact tracks availability,
rebuild count and p99-under-fault over time.  Fully seeded: a red run
here replays identically with the same command locally.

Usage::

    PYTHONPATH=src python benchmarks/smoke_chaos_serve.py
"""

from __future__ import annotations

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

GRAPHS = ("karate", "bombing_proxy")
NUM_REQUESTS = 100
SEED = 11
AVAILABILITY_FLOOR = 0.95


def main() -> int:
    trace = generate_trace(GRAPHS, NUM_REQUESTS, seed=SEED, mean_gap_s=0.005)
    references = direct_references(trace)
    fault_plan = ServeFaultPlan.seeded(
        SEED, GRAPHS, max_calls=4 * NUM_REQUESTS, rate=0.2
    )
    registry = GraphRegistry()
    for name in GRAPHS:
        registry.register_spec(name)
    config = ServeConfig(
        port=0,
        queue_capacity=NUM_REQUESTS,
        supervision=SupervisionConfig(
            query_deadline_s=30.0,
            breaker_threshold=3,
            breaker_cooldown_s=0.25,
        ),
    )
    with ServerThread(registry, config, fault_plan=fault_plan) as handle:
        status, health = handle.request("GET", "/health")
        assert status == 200 and health["status"] == "ok", health
        outcomes, wall_s = replay(
            handle, trace, max_clients=8, capture_docs=True
        )
        _, metrics = handle.request("GET", "/metrics")

    summary = summarize(outcomes, wall_s)
    availability = summary["ok"] / summary["requests"]
    assert availability >= AVAILABILITY_FLOOR, summary["statuses"]

    # Bit-for-bit: every 200 (degraded included) equals the direct API.
    verified, degraded = verify_200s(trace, outcomes, references)
    assert verified == summary["ok"]

    # The chaos genuinely happened and was healed, not dodged.
    supervision = metrics["supervision"]
    injected = sum(supervision["injected_faults"].values())
    rebuilds = sum(supervision["rebuilds"].values())
    assert injected > 0, "seeded fault plan injected nothing"
    assert rebuilds > 0, "faults fired but no session was rebuilt"

    # Conserved queue accounting even while sessions churn.
    queue = metrics["queue"]
    assert queue["enqueued_total"] == (
        queue["dequeued_total"] + queue["expired_total"]
    ), queue
    assert queue["depth"] == 0, queue

    # Clean shutdown: nothing survives the context manager.
    assert multiprocessing.active_children() == []
    assert live_engine_threads() == []

    entry = bench_entry(
        bench="chaos_serve_smoke",
        instance="+".join(GRAPHS),
        algorithm=f"smoke-chaos(n={NUM_REQUESTS})",
        wall_s=summary["wall_s"],
        extra={
            "availability": round(availability, 4),
            "ok": summary["ok"],
            "degraded": degraded,
            "injected_faults": injected,
            "rebuilds": rebuilds,
            "p50_ms": round(summary["p50_ms"], 2),
            "p99_ms": round(summary["p99_ms"], 2),
            "statuses": summary["statuses"],
        },
    )
    write_bench_json(os.path.join(REPO_ROOT, BENCH_FILENAME), [entry])

    print(
        f"chaos serve smoke: {summary['ok']}/{NUM_REQUESTS} ok "
        f"(availability={availability:.1%}, {degraded} degraded), "
        f"{injected} faults injected, {rebuilds} rebuilds, "
        f"p99={summary['p99_ms']:.1f}ms, wall={wall_s:.2f}s, clean shutdown"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
