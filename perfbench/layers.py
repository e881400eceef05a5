"""The traced run's layer probe and the per-layer metrics.

Each layer of the package (``graph``, ``core``, ``paths``,
``centrality``, ``clique``, ``parallel``, ``serve``) is timed from
outside, around calls to its public functions, on the workload's own
graphs.  Every workload's traced run reports every layer, so a layer a
workload does not exercise shows what that layer costs on its inputs.
Exact counts are summed over one call per graph and repeat exactly at a
fixed seed; times are calibrated medians of the spans.
"""

from __future__ import annotations

import statistics

#: Vertices per graph the ``paths`` probe runs a full BFS from.
BFS_SOURCES = 8


def _timed(tracer, cal, rid, name, fn):
    cal.maybe_sample()
    with tracer.request(rid), tracer.span(name):
        return fn()


def probe(graphs, tracer, cal, group_k) -> dict:
    """Call every layer once per graph (a few times where cheap).

    Returns the exact counts; the times stay in ``tracer``'s spans.
    """
    from repro import SkylineCounters, neighborhood_skyline
    from repro.centrality import ClosenessObjective, run_greedy
    from repro.clique import neisky_mc
    from repro.core.api import engine_session, group_centrality_maximize
    from repro.core.filter_phase import filter_phase
    from repro.graph.cores import core_decomposition
    from repro.graph.io import load_graph
    from repro.paths import bfs_distances
    from repro.serve import GraphRegistry
    from repro.serve.registry import execute_query

    counts = dict.fromkeys(
        (
            "core.candidates",
            "core.skyline_size",
            "core.pair_tests",
            "core.bloom_false_positives",
            "centrality.evaluations",
            "centrality.pool_size",
            "centrality.lanes_evaluated",
            "centrality.lanes_short_circuited",
        ),
        0,
    )
    registry = GraphRegistry(workers=1)
    try:
        for name, path in graphs:
            rid = f"probe-{name}"
            graph = _timed(tracer, cal, rid, "graph.load", lambda: load_graph(path))
            _timed(tracer, cal, rid, "graph.cores", lambda: core_decomposition(graph))
            _timed(tracer, cal, rid, "core.filter", lambda: filter_phase(graph))
            counters = SkylineCounters()
            sky = _timed(
                tracer, cal, rid, "core.skyline",
                lambda: neighborhood_skyline(graph, counters=counters),
            )
            counts["core.candidates"] += sky.candidate_size
            counts["core.skyline_size"] += sky.size
            counts["core.pair_tests"] += counters.pair_tests
            counts["core.bloom_false_positives"] += counters.bloom_false_positives

            for source in sky.skyline[:BFS_SOURCES]:
                _timed(tracer, cal, rid, "paths.bfs", lambda: bfs_distances(graph, source))

            group = _timed(
                tracer, cal, rid, "centrality.greedy",
                lambda: group_centrality_maximize(graph, group_k, skyline=sky.skyline),
            )
            counts["centrality.evaluations"] += group.evaluations
            counts["centrality.pool_size"] += group.pool_size
            # The lane counters exist on the lazy engine only.
            lazy = SkylineCounters()
            _timed(
                tracer, cal, rid, "centrality.lazy_greedy",
                lambda: run_greedy(
                    graph, group_k, ClosenessObjective(graph),
                    candidates=sky.skyline, strategy="lazy", counters=lazy,
                ),
            )
            counts["centrality.lanes_evaluated"] += lazy.extra["lanes_evaluated"]
            counts["centrality.lanes_short_circuited"] += lazy.extra["lanes_short_circuited"]

            _timed(tracer, cal, rid, "clique.search", lambda: neisky_mc(graph, skyline=sky.skyline))

            # The serve skyline query's path: a warm one-worker session.
            with engine_session(graph, workers=1) as session:
                session.refine_sky()
                for _ in range(2):
                    _timed(tracer, cal, rid, "parallel.session_refine", session.refine_sky)

            entry = registry.register(name, graph)
            entry.skyline_result()
            for kind, params in (("skyline", {}), ("skyline", {}), ("group", {"k": 2}), ("clique", {})):
                _timed(
                    tracer, cal, rid, f"serve.engine.{kind}",
                    lambda: execute_query(entry, kind, params),
                )
    finally:
        registry.close()
    cal.sample()
    return counts


def calibrated_ms(tracer, cal, name) -> list[float]:
    return [d * 1000.0 * cal.factor_at(start) for start, d in tracer.durations(name)]


def engine_by_graph(tracer, cal) -> dict:
    """Median direct skyline ``execute_query`` ms per probed graph."""
    per_graph: dict = {}
    for s in tracer.spans:
        if s.name == "serve.engine.skyline":
            ms = (s.end - s.start) * 1000.0 * cal.factor_at(s.start)
            per_graph.setdefault(s.request_id.removeprefix("probe-"), []).append(ms)
    return {name: statistics.median(v) for name, v in per_graph.items()}


def layer_metrics(tracer, cal, counts, serve_records, queue_wait_ms) -> dict:
    """Every per-layer metric from spans, probe counts and serve records.

    ``serve_records`` are the records of the served pass sequence.
    ``serve.overhead_ms`` is the median over its skyline requests of
    HTTP latency minus the graph's median direct ``execute_query`` time.
    """
    med = lambda name: statistics.median(calibrated_ms(tracer, cal, name))  # noqa: E731
    skyline_ms = calibrated_ms(tracer, cal, "core.skyline")
    filter_ms = calibrated_ms(tracer, cal, "core.filter")
    # Filter and skyline are probed in pairs, one pair per graph.
    refine = [s - f for s, f in zip(skyline_ms[-len(filter_ms):], filter_ms)]
    first_pass = [r for r in serve_records if r.pass_index == serve_records[0].pass_index]
    engine = engine_by_graph(tracer, cal)
    overhead = [
        r.calibrated_ms - engine[r.graph]
        for r in serve_records
        if r.kind == "skyline" and r.ok and r.graph in engine
    ]
    metrics = {
        "graph.load_ms": (med("graph.load"), "ms"),
        "graph.cores_ms": (med("graph.cores"), "ms"),
        "core.filter_ms": (med("core.filter"), "ms"),
        "core.refine_ms": (statistics.median(refine), "ms"),
        "paths.bfs_ms": (med("paths.bfs"), "ms"),
        "centrality.greedy_ms": (med("centrality.greedy"), "ms"),
        "clique.search_ms": (med("clique.search"), "ms"),
        "parallel.session_refine_ms": (med("parallel.session_refine"), "ms"),
        "serve.engine_ms": (med("serve.engine.skyline"), "ms"),
        "serve.overhead_ms": (statistics.median(overhead), "ms"),
        "serve.queue_wait_ms": (queue_wait_ms, "ms"),
        "serve.register_ms": (med("serve.register"), "ms"),
        "serve.response_bytes": (
            sum(r.nbytes for r in first_pass if r.kind in ("skyline", "group", "clique")),
            "bytes",
        ),
        "serve.status_4xx": (sum(400 <= r.status < 500 for r in first_pass), "count"),
        "serve.status_5xx": (sum(r.status >= 500 for r in first_pass), "count"),
    }
    for name, value in counts.items():
        metrics[name] = (value, "count")
    return metrics
