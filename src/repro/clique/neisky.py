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
skyline vertex.

A root ``u`` with ``core(u) + 1 ≤ |best|`` is skipped before its ego
network is built: every clique through ``u`` has at most
``core(u) + 1`` vertices (Batagelj & Zaveršnik), so its search could
record nothing, and skipping it cannot change the result.  One peel
feeds both this test and the heuristic's initial clique.  On the n=400
copying-model graphs ``repro-sky serve`` hosts in its benchmark, the
heuristic already finds ω and no root survives.
"""

from __future__ import annotations

from typing import Optional

from repro.clique.mcbrb import NeighborSets, heuristic_clique, search_root
from repro.core.api import neighborhood_skyline
from repro.core.deadline import check as check_deadline
from repro.graph.adjacency import Graph
from repro.graph.cores import core_decomposition

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
    core, order, _k = core_decomposition(graph)
    best = heuristic_clique(graph, order)
    # The core test below, applied before any root set-up.
    roots = [u for u in skyline if core[u] + 1 > len(best)]
    if not roots:
        return sorted(best)
    degree = graph.degrees()
    neighbors = graph.neighbors
    adjacency = NeighborSets(graph)
    # Densest roots first so the incumbent grows quickly.
    for u in sorted(roots, key=degree.__getitem__, reverse=True):
        if core[u] + 1 <= len(best):
            continue
        # Candidate reduction: a member of a clique beating the
        # incumbent needs degree >= |best| (it has |best| clique
        # neighbors).  This trims the low-degree periphery out of hub
        # ego networks, the full-ego analogue of MC-BRB's reductions.
        floor = len(best)
        candidates = [v for v in neighbors(u) if degree[v] >= floor]
        check_deadline()
        search_root(adjacency, u, candidates, best)
    return sorted(best)
