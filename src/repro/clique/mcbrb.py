"""An MC-BRB-style exact maximum-clique solver.

The paper benchmarks against MC-BRB (Chang, KDD'19).  This solver keeps
its load-bearing ingredients, each standard and exact:

1. **Near-linear heuristic** — a degeneracy-guided greedy clique gives a
   strong initial lower bound (MC-BRB's heuristic phase);
2. **Ego-network decomposition** — every clique has a leftmost vertex in
   the degeneracy ordering, so the maximum clique is
   ``max_v 1 + ω(G[N→(v)])`` over right-neighborhoods of size at most
   the degeneracy;
3. **Branch-reduce-and-bound** on each subproblem with a **greedy
   coloring bound**: candidates are colored, and a branch is cut when
   ``|H| + colors ≤ |best|`` (Tomita-style MCS bound);
4. **Degree/core pruning** — subproblems whose candidate count cannot
   beat the incumbent are skipped outright.

The same bounded search is exposed as :func:`max_clique_with_root` for
the skyline applications, which must search full (not right-restricted)
ego networks — see :mod:`repro.clique.neisky` for why.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.clique.ordering import degeneracy_ordering
from repro.core.deadline import check as check_deadline
from repro.graph.adjacency import Graph
from repro.graph.cores import core_decomposition

__all__ = ["mc_brb", "max_clique_with_root", "greedy_heuristic_clique"]


def greedy_heuristic_clique(graph: Graph) -> list[int]:
    """Near-linear heuristic clique (lower bound, not necessarily maximum).

    Processes the degeneracy ordering from the densest end: seed with a
    vertex, then greedily absorb right-neighbors adjacent to the whole
    current clique.  Mirrors MC-BRB's heuristic phase closely enough to
    provide the strong initial bound the exact phase relies on.
    """
    n = graph.num_vertices
    if n == 0:
        return []
    order, _k = degeneracy_ordering(graph)
    rank = [0] * n
    for pos, u in enumerate(order):
        rank[u] = pos
    best: list[int] = []
    # Try a seed from the dense tail; a handful of seeds is enough for a
    # good bound and keeps the heuristic near-linear.
    for seed in reversed(order[-32:]):
        clique = [seed]
        members = {seed}
        # Candidates: neighbors later in the ordering, densest-first.
        cands = sorted(
            (v for v in graph.neighbors(seed) if rank[v] > rank[seed]),
            key=lambda v: -rank[v],
        )
        for v in cands:
            if all(graph.has_edge(v, w) for w in clique):
                clique.append(v)
                members.add(v)
        if len(clique) > len(best):
            best = clique
    return sorted(best)


def _color_sort(
    candidates: list[int], adjacency: Sequence[set[int]]
) -> tuple[list[int], list[int]]:
    """Greedy coloring of ``candidates``; returns (vertices, colors).

    Vertices come back ordered by color class (ascending), so iterating
    from the end visits the highest upper bounds first — the standard
    Tomita branching order.  ``colors[i]`` is the 1-based color of
    ``vertices[i]``, an upper bound on the clique size within the prefix.
    """
    color_classes: list[list[int]] = []
    for v in candidates:
        adj_v = adjacency[v]
        for cls in color_classes:
            if not any(w in adj_v for w in cls):
                cls.append(v)
                break
        else:
            color_classes.append([v])
    ordered: list[int] = []
    colors: list[int] = []
    for color, cls in enumerate(color_classes, start=1):
        for v in cls:
            ordered.append(v)
            colors.append(color)
    return ordered, colors


def _bb_colored(
    adjacency: Sequence[set[int]],
    clique: list[int],
    candidates: list[int],
    best: list[int],
    floor: int = 0,
) -> None:
    """Branch and bound with the greedy-coloring upper bound.

    ``floor`` acts as an external incumbent size: branches that cannot
    exceed ``max(len(best), floor)`` are cut, and nothing smaller than
    ``floor`` is ever recorded.  Callers with a bound from elsewhere
    (e.g. a clique found at a different root) pass it here.
    """
    incumbent = max(len(best), floor)
    if not candidates:
        if len(clique) > incumbent:
            best[:] = clique
        return
    ordered, colors = _color_sort(candidates, adjacency)
    for i in range(len(ordered) - 1, -1, -1):
        incumbent = max(len(best), floor)
        if len(clique) + colors[i] <= incumbent:
            return  # every remaining vertex has an even smaller bound
        v = ordered[i]
        adj_v = adjacency[v]
        clique.append(v)
        _bb_colored(
            adjacency,
            clique,
            [w for w in ordered[:i] if w in adj_v],
            best,
            floor,
        )
        clique.pop()


def mc_brb(graph: Graph) -> list[int]:
    """Exact maximum clique (sorted) with the MC-BRB-style pipeline."""
    n = graph.num_vertices
    if n == 0:
        return []
    best = greedy_heuristic_clique(graph)
    core, order, _k = core_decomposition(graph)
    rank = [0] * n
    for pos, u in enumerate(order):
        rank[u] = pos
    adjacency = [set(graph.neighbors(u)) for u in range(n)]
    for u in order:
        # Core reduction: every member of a clique of size s has core
        # number >= s - 1, so a root (or candidate) with
        # core(v) + 1 <= |best| cannot appear in anything better.  This
        # subsumes the old degree filter (core(v) <= deg(v)).
        if core[u] + 1 <= len(best):
            continue
        right = [v for v in graph.neighbors(u) if rank[v] > rank[u]]
        if len(right) + 1 <= len(best):
            continue
        floor = len(best)
        right = [v for v in right if core[v] >= floor]
        if len(right) + 1 <= len(best):
            continue
        check_deadline()
        _bb_colored(adjacency, [u], right, best)
    return sorted(best)


def max_clique_with_root(
    graph: Graph,
    root: int,
    *,
    lower_bound: int = 0,
    adjacency: Optional[Sequence[set[int]]] = None,
) -> list[int]:
    """The largest clique containing ``root`` (``MC(root)``), sorted.

    ``lower_bound`` prunes branches that cannot beat an incumbent from a
    different root, in which case the returned clique may be *smaller*
    than ``MC(root)`` (possibly just ``[root]``) — exactly the contract
    the top-k search wants.  Pass ``adjacency`` (list of neighbor sets)
    to amortize its construction across many roots.
    """
    if adjacency is None:
        adjacency = [set(graph.neighbors(u)) for u in graph.vertices()]
    best: list[int] = []
    _bb_colored(
        adjacency, [root], list(graph.neighbors(root)), best, lower_bound
    )
    return sorted(best) if best else [root]
