"""``LC-Join`` skyline baseline: domination discovery as containment join.

The adapter the paper's Exp-1/Exp-2 compare against: build the data set
``S = {N[i]}`` with an inverted index, the query set ``Q = {N(i)}``, and
for each vertex intersect posting lists to find every ``w`` with
``N(u) ⊆ N[w]``.  A vertex is dominated iff the result contains some
``w ≠ u`` with ``deg(w) > deg(u)``, or with ``deg(w) = deg(u)`` and
``w < u`` (mutual inclusion, ID tie-break) — the degree distinction is
exact because ``N(u) ⊆ N[w]`` forces ``deg(w) ≥ deg(u)``.

A pleasing structural fact: the posting list of element ``x`` over
``S = {N[i]}`` is precisely ``N[x]``, so the index is a materialized
second copy of the graph — which is exactly the memory overhead the
paper attributes to join-based approaches.
"""

from __future__ import annotations

from typing import Optional

from repro.containment.lcjoin import ContainmentJoin
from repro.containment.records import RecordSet
from repro.core.counters import NULL_COUNTERS, SkylineCounters
from repro.core.result import SkylineResult
from repro.graph.adjacency import Graph

__all__ = ["lc_join_sky"]


def lc_join_sky(
    graph: Graph,
    *,
    counters: Optional[SkylineCounters] = None,
) -> SkylineResult:
    """Compute the neighborhood skyline via a set-containment join."""
    stats = counters if counters is not None else NULL_COUNTERS
    n = graph.num_vertices
    data = RecordSet.closed_neighborhoods(graph)
    join = ContainmentJoin(data)

    dominator = list(range(n))
    degree = graph.degree
    for u in range(n):
        deg_u = degree(u)
        if deg_u == 0:
            # Isolated vertices are skyline members by convention
            # (see DESIGN.md §1); an empty query would match everything.
            continue
        stats.vertices_examined += 1
        query = tuple(graph.neighbors(u))
        for w in join.containing_records(query):
            if w == u:
                continue
            stats.pair_tests += 1
            deg_w = degree(w)
            if deg_w > deg_u or (deg_w == deg_u and w < u):
                dominator[u] = w
                stats.dominations_found += 1
                break

    skyline = tuple(u for u in range(n) if dominator[u] == u)
    return SkylineResult(
        skyline=skyline,
        dominator=tuple(dominator),
        candidates=None,
        algorithm="LC-Join",
        counters=counters,
    )
