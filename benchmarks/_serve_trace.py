"""Shared load-generation harness for the serving benchmarks.

Three pieces, all deterministic under a seed so replay runs are
reproducible request-for-request:

* :func:`generate_trace` — a seeded mixed-workload trace (skyline /
  group / clique over several graphs) with bursty arrivals: requests
  land in bursts of 1..``burst_max`` separated by exponential gaps, the
  arrival pattern the bounded queue exists to absorb;
* :func:`replay` — fire a trace at a live
  :class:`~repro.serve.server.ServerThread` from a small client pool,
  honoring each request's arrival offset, and record per-request
  status + latency;
* :func:`summarize` — p50/p99 latency, status counts, rejection and
  expiry rates from the recorded outcomes;
* :func:`live_engine_threads` — the clean-shutdown check: the engine
  threads still alive after a server stopped.

Latency here is the full client round-trip (connect + queue wait +
service + response), which is what a caller of the service observes.
"""

from __future__ import annotations

import random
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

QUERY_KINDS = ("skyline", "group", "clique")

#: Workload mix: skyline dominates (the cheap cached query), group and
#: clique ride along as the expensive tail.
DEFAULT_KIND_WEIGHTS = (6, 3, 1)


@dataclass(frozen=True)
class TraceRequest:
    """One request in a trace: when it arrives and what it asks."""

    offset_s: float  # arrival time relative to replay start
    graph: str
    kind: str
    payload: dict = field(hash=False)


@dataclass(frozen=True)
class Outcome:
    """One completed round-trip during replay.

    ``doc`` is the decoded response body when the replay ran with
    ``capture_docs=True`` (the chaos replays need it for bit-for-bit
    verification of every 200), else ``None``.
    """

    kind: str
    status: int
    latency_s: float
    doc: object = field(default=None, hash=False, compare=False)


def generate_trace(
    graphs,
    num_requests: int,
    *,
    seed: int = 0,
    mean_gap_s: float = 0.02,
    burst_max: int = 6,
    kind_weights=DEFAULT_KIND_WEIGHTS,
    timeout_s=None,
) -> list:
    """A seeded mixed trace with bursty arrivals.

    Every request inside a burst shares one arrival offset (the burst
    hits the socket back-to-back); bursts are separated by
    ``Exp(1/mean_gap_s)`` gaps.  ``timeout_s`` (optional) is stamped on
    every request so replay runs can bound their queue wait.
    """
    graphs = tuple(graphs)
    rng = random.Random(seed)
    trace: list[TraceRequest] = []
    clock = 0.0
    while len(trace) < num_requests:
        burst = min(rng.randint(1, burst_max), num_requests - len(trace))
        for _ in range(burst):
            kind = rng.choices(QUERY_KINDS, weights=kind_weights)[0]
            graph = rng.choice(graphs)
            payload = {
                "graph": graph,
                "kind": kind,
                "priority": rng.randint(0, 2),
            }
            if kind == "group":
                payload["k"] = rng.randint(2, 4)
                payload["measure"] = rng.choice(("closeness", "harmonic"))
            elif kind == "clique" and rng.random() < 0.5:
                payload["top_k"] = rng.randint(2, 3)
            if timeout_s is not None:
                payload["timeout_s"] = timeout_s
            trace.append(TraceRequest(clock, graph, kind, payload))
        clock += rng.expovariate(1.0 / mean_gap_s)
    return trace


def replay(
    handle,
    trace,
    *,
    max_clients: int = 8,
    timeout: float = 120.0,
    capture_docs: bool = False,
) -> tuple[list, float]:
    """Fire ``trace`` at a live server; returns (outcomes, wall_s).

    The submitting thread paces arrivals against the trace clock; a
    client pool carries the concurrent in-flight requests, so a burst
    genuinely overlaps on the wire.  Outcomes keep trace order.
    ``capture_docs`` retains each decoded response body on its
    :class:`Outcome` for correctness verification.
    """
    results: list = [None] * len(trace)

    def fire(index: int, request: TraceRequest) -> None:
        start = time.perf_counter()
        status, doc = handle.request(
            "POST", "/query", request.payload, timeout=timeout
        )
        results[index] = Outcome(
            request.kind,
            status,
            time.perf_counter() - start,
            doc if capture_docs else None,
        )

    started = time.perf_counter()
    with ThreadPoolExecutor(max_workers=max_clients) as pool:
        futures = []
        for index, request in enumerate(trace):
            delay = request.offset_s - (time.perf_counter() - started)
            if delay > 0:
                time.sleep(delay)
            futures.append(pool.submit(fire, index, request))
        for future in futures:
            future.result()  # re-raise client-side failures
    return results, time.perf_counter() - started


def canonical_params(payload: dict) -> tuple:
    """The subset of a trace payload that determines the query result.

    Routing and scheduling fields (graph/kind/priority/timeout) change
    *where and when* a request runs, never *what* it computes, so they
    are dropped; what remains (``k``, ``measure``, ``top_k``, ...) keys
    the ground-truth table of :func:`direct_references`.
    """
    drop = {"graph", "kind", "priority", "timeout_s"}
    return tuple(
        sorted((k, v) for k, v in payload.items() if k not in drop)
    )


def direct_references(trace) -> dict:
    """Ground-truth result per unique (graph, kind, params) in ``trace``.

    Computed on a private registry through the same
    :func:`~repro.serve.registry.execute_query` path a healthy server
    uses — but with no server, no queue, and no fault plan in between —
    with the ``_counters`` side channel stripped.  Every 200 a replay
    collects (degraded ones included: the stale cache holds a previous
    good answer, and graphs are immutable) must match its entry
    bit-for-bit.
    """
    from repro.serve import GraphRegistry
    from repro.serve.registry import execute_query

    references: dict = {}
    registry = GraphRegistry()
    try:
        for request in trace:
            if request.graph not in registry.names():
                registry.register_spec(request.graph)
            params = canonical_params(request.payload)
            key = (request.graph, request.kind, params)
            if key not in references:
                payload = execute_query(
                    registry.entry(request.graph),
                    request.kind,
                    dict(params),
                )
                payload.pop("_counters", None)
                references[key] = payload
        return references
    finally:
        registry.close()


def verify_200s(trace, outcomes, references) -> tuple[int, int]:
    """Bit-for-bit check of every 200 against ``references``.

    Returns ``(verified, degraded)`` counts; raises ``AssertionError``
    naming the first mismatching request otherwise.  Degraded 200s are
    held to the *same* equality bar — the serving contract is that
    degradation changes freshness bookkeeping, never answers.
    """
    verified = degraded = 0
    for index, (request, outcome) in enumerate(zip(trace, outcomes)):
        if outcome.status != 200:
            continue
        key = (request.graph, request.kind, canonical_params(request.payload))
        doc = outcome.doc
        assert doc is not None, "replay ran without capture_docs=True"
        assert doc["result"] == references[key], (
            f"request {index} ({request.kind} on {request.graph}): "
            f"served 200 differs from direct API result"
        )
        verified += 1
        degraded += bool(doc.get("degraded"))
    return verified, degraded


def _percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile over an already-sorted list."""
    if not sorted_values:
        return 0.0
    rank = -(-p * len(sorted_values) // 100)  # ceil(p/100 * n)
    rank = min(len(sorted_values), max(1, int(rank)))
    return sorted_values[rank - 1]


def summarize(outcomes, wall_s: float) -> dict:
    """Headline numbers for one replay run."""
    statuses = Counter(outcome.status for outcome in outcomes)
    latencies = sorted(o.latency_s for o in outcomes if o.status == 200)
    total = len(outcomes)
    rejected = statuses.get(429, 0)
    expired = statuses.get(504, 0)
    server_errors = sum(
        count
        for status, count in statuses.items()
        if status >= 500 and status != 504
    )
    return {
        "requests": total,
        "wall_s": wall_s,
        "ok": statuses.get(200, 0),
        "rejected": rejected,
        "expired": expired,
        "server_errors": server_errors,
        "rejection_rate": rejected / total if total else 0.0,
        "p50_ms": 1000.0 * _percentile(latencies, 50),
        "p99_ms": 1000.0 * _percentile(latencies, 99),
        "statuses": {str(k): v for k, v in sorted(statuses.items())},
    }


def live_engine_threads() -> list[str]:
    """Names of live serving engine threads; empty once servers stop."""
    return [
        thread.name
        for thread in threading.enumerate()
        if thread.name.startswith("repro-serve-engine")
    ]
