"""``BaseSky`` — Algorithm 1 of the paper.

The baseline neighborhood-skyline algorithm, adapted from Brandes et
al.'s partial-order computation: for every not-yet-dominated vertex
``u``, walk its 2-hop neighborhood accumulating
``T(w) = |N(u) ∩ N[w]|``; the moment ``T(w)`` reaches ``deg(u)`` we know
``N(u) ⊆ N[w]`` and resolve the domination direction by degree and ID.

Faithfulness notes
------------------
* The paper re-initializes the size-``n`` array ``T`` for every outer
  vertex, which alone costs ``O(n²)``.  We keep ``T`` allocated once and
  pair it with a *version stamp* per entry, so the per-vertex reset is
  O(1) and the asymptotics match the paper's stated ``O(m · dmax)``.
  Output is identical.
* Each ``O(u)`` is overwritten at most once ("maintained once" in the
  paper) — a vertex is out of the skyline as soon as one dominator is
  known, and the strict-domination branch breaks out of the scan.
* The dominator array is a *witness of neighborhood inclusion*, not
  always of strict domination: in a rare interleaving (u gets strictly
  dominated mid-scan, then a mutual-inclusion partner ``w`` with
  ``w > u`` is met) the paper's line 14 records ``O(w) = u`` even though
  the tie-break says ``u`` does not dominate ``w``.  Membership in the
  skyline is still decided correctly — by transitivity ``w`` is
  genuinely dominated by ``u``'s own dominator — so we preserve the
  paper's behaviour and document the witness as inclusion-only.
"""

from __future__ import annotations

from typing import Optional

from repro.core.counters import NULL_COUNTERS, SkylineCounters
from repro.core.result import SkylineResult
from repro.graph.adjacency import Graph

__all__ = ["base_sky"]


def base_sky(
    graph: Graph, *, counters: Optional[SkylineCounters] = None
) -> SkylineResult:
    """Compute the neighborhood skyline with Algorithm 1 (``BaseSky``).

    ``O(m · dmax)`` time, ``O(n + m)`` space.

    >>> from repro.graph.generators import complete_graph
    >>> base_sky(complete_graph(4)).skyline
    (0,)
    """
    stats = counters if counters is not None else NULL_COUNTERS
    n = graph.num_vertices
    dominator = list(range(n))
    count = [0] * n
    stamp = [-1] * n
    neighbors = graph.neighbors
    deg = graph.degrees()

    for u in range(n):
        if dominator[u] != u:
            continue
        stats.vertices_examined += 1
        deg_u = deg[u]
        strictly_dominated = False
        for v in neighbors(u):
            if strictly_dominated:
                break
            for w in _closed_neighborhood_except(graph, v, u):
                if stamp[w] != u:
                    stamp[w] = u
                    count[w] = 0
                count[w] += 1
                stats.counter_updates += 1
                if count[w] != deg_u:
                    continue
                # N(u) ⊆ N[w]: u is neighborhood-included by w.
                stats.pair_tests += 1
                deg_w = deg[w]
                if deg_w == deg_u:
                    # Mutual inclusion; the smaller ID dominates (Def. 2).
                    # The scan continues either way so the remaining
                    # members of u's twin class still get marked.
                    if u > w and dominator[u] == u:
                        dominator[u] = w
                        stats.dominations_found += 1
                    elif dominator[w] == w:
                        dominator[w] = u
                        stats.dominations_found += 1
                else:
                    # deg_w > deg_u: strict domination of u by w; stop
                    # exploring the rest of N2(u) (paper, Sec. III-A).
                    if dominator[u] == u:
                        dominator[u] = w
                        stats.dominations_found += 1
                        strictly_dominated = True
                        break

    skyline = tuple(u for u in range(n) if dominator[u] == u)
    return SkylineResult(
        skyline=skyline,
        dominator=tuple(dominator),
        candidates=None,
        algorithm="BaseSky",
        counters=counters,
    )


def _closed_neighborhood_except(graph: Graph, v: int, u: int):
    """Iterate ``N[v] \\ {u}``: v's neighbors except u, plus v itself."""
    for w in graph.neighbors(v):
        if w != u:
            yield w
    yield v
