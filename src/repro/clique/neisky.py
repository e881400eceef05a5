"""``NeiSkyMC`` — Algorithm 5: skyline-pruned maximum-clique search.

Lemma 5's consequence: *some maximum clique contains a skyline vertex*.
(Take any maximum clique ``H`` and any ``v ∈ H``; while ``v`` is
dominated by some ``u``, either ``u ∈ H`` already or
``H \\ {v} ∪ {u}`` is a maximum clique containing ``u`` — ``u`` is
adjacent to all of ``H \\ {v}`` because ``N(v) ⊆ N[u]``.  Walking up the
domination order terminates at a skyline vertex.)

So instead of rooting the branch-and-bound at every vertex, ``NeiSkyMC``
roots it only at skyline vertices, each with the *full* ego network
``N(u)`` as candidates — full, not right-restricted as in plain MC-BRB,
because the leftmost member of the optimal clique need not itself be a
skyline vertex.  Roots that cannot beat the incumbent
(``deg(u) + 1 ≤ |best|``) are skipped.
"""

from __future__ import annotations

from typing import Optional

from repro.clique.mcbrb import _bb_colored, greedy_heuristic_clique
from repro.core.api import neighborhood_skyline
from repro.core.deadline import check as check_deadline
from repro.graph.adjacency import Graph

__all__ = ["neisky_mc"]


def neisky_mc(
    graph: Graph,
    *,
    skyline: Optional[tuple[int, ...]] = None,
) -> list[int]:
    """Exact maximum clique searching only skyline-rooted ego networks.

    ``skyline`` may be supplied when precomputed; otherwise
    :func:`~repro.core.api.neighborhood_skyline` runs first (its cost
    is part of what the paper's Exp-6 measures at ``k = 1``).
    """
    n = graph.num_vertices
    if n == 0:
        return []
    if skyline is None:
        skyline = neighborhood_skyline(graph).skyline
    best = greedy_heuristic_clique(graph)
    adjacency = [set(graph.neighbors(u)) for u in range(n)]
    degree = graph.degree
    # Densest roots first so the incumbent grows quickly.
    for u in sorted(skyline, key=degree, reverse=True):
        if degree(u) + 1 <= len(best):
            continue
        # Candidate reduction: a member of a clique beating the
        # incumbent needs degree >= |best| (it has |best| clique
        # neighbors).  This trims the low-degree periphery out of hub
        # ego networks, the full-ego analogue of MC-BRB's reductions.
        floor = len(best)
        candidates = [
            v for v in graph.neighbors(u) if degree(v) >= floor
        ]
        check_deadline()
        _bb_colored(adjacency, [u], candidates, best)
    return sorted(best)
