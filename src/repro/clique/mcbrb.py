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
4. **Core pruning** — a clique of size ``s`` needs core number
   ``≥ s - 1`` on every member, so roots and candidates that cannot
   beat the incumbent are dropped before their subproblem is built.

One :func:`~repro.graph.cores.core_decomposition` per solver call feeds
both the heuristic (its peel order) and the root loop (order and core
numbers).  Each root's search numbers its candidates ``0..L-1`` in
candidate order and gives every candidate a Python-int bitmask of its
neighbours among them (:func:`_local_masks`).  The coloring then fills
one class at a time: within a run of ascending positions the next
vertex the class admits is the lowest bit not yet ruled out, and a
subproblem's candidates are the lower classes masked by the branching
vertex's neighbours (:func:`color_classes`, :func:`_expand`).  The
search visits the same branches in the same order as the list-and-set
search it replaced, so its output is the same vertex list, tie-breaks
included (``tests/clique/test_golden.py`` pins the lists).

The same bounded search is exposed as :func:`max_clique_with_root` for
the skyline applications, which must search full (not right-restricted)
ego networks — see :mod:`repro.clique.neisky` for why.
"""

from __future__ import annotations

from typing import Mapping, Sequence, Union

from repro.core.deadline import check as check_deadline
from repro.graph.adjacency import Graph
from repro.graph.cores import core_decomposition

__all__ = ["mc_brb", "max_clique_with_root", "greedy_heuristic_clique"]

#: Neighbor sets indexed by vertex: a list, or a :class:`NeighborSets`.
Adjacency = Union[Sequence[set[int]], Mapping[int, set[int]]]

#: Seeds the heuristic tries, from the dense end of the peel order: a
#: handful is enough for a good bound and keeps it near-linear.
HEURISTIC_SEEDS = 32


class NeighborSets(dict):
    """``N(u)`` as a set, built the first time ``u`` is looked up.

    A solver that rejects most roots on core numbers never builds the
    sets of the vertices it does not search.
    """

    def __init__(self, graph: Graph):
        super().__init__()
        self._neighbors = graph.neighbors

    def __missing__(self, u: int) -> set[int]:
        row = self[u] = set(self._neighbors(u))
        return row


def greedy_heuristic_clique(graph: Graph) -> list[int]:
    """Near-linear heuristic clique (lower bound, not necessarily maximum).

    Processes the degeneracy ordering from the densest end: seed with a
    vertex, then greedily absorb right-neighbors adjacent to the whole
    current clique.  Mirrors MC-BRB's heuristic phase closely enough to
    provide the strong initial bound the exact phase relies on.
    """
    if graph.num_vertices == 0:
        return []
    return heuristic_clique(graph, core_decomposition(graph).order)


def heuristic_clique(graph: Graph, order: Sequence[int]) -> list[int]:
    """:func:`greedy_heuristic_clique` on a peel ``order`` already at hand."""
    neighbors = graph.neighbors
    # Every seed lies in the tail, and so does every vertex after it.
    tail = order[-HEURISTIC_SEEDS:]
    rank = {u: pos for pos, u in enumerate(tail)}
    best: list[int] = []
    for seed in reversed(tail):
        # Candidates: neighbors later in the ordering, densest-first.
        r = rank[seed]
        cands = sorted(
            (v for v in neighbors(seed) if rank.get(v, -1) > r),
            key=rank.__getitem__,
            reverse=True,
        )
        clique = [seed]
        # The candidates adjacent to every member so far.
        common = set(cands)
        for v in cands:
            if v in common:
                clique.append(v)
                common.intersection_update(neighbors(v))
        if len(clique) > len(best):
            best = clique
    return sorted(best)


def _local_masks(
    adjacency: Adjacency, candidates: Sequence[int]
) -> list[int]:
    """Neighbour bitmasks over the positions of ``candidates``.

    Bit ``j`` of ``masks[i]`` is set iff ``candidates[i]`` and
    ``candidates[j]`` are adjacent.  Set intersections walk the smaller
    side, so a candidate costs ``O(min(deg, len(candidates)))``.
    """
    members = set(candidates)
    bit = {v: 1 << j for j, v in enumerate(candidates)}.__getitem__
    masks = []
    for v in candidates:
        nbrs = adjacency[v]
        if members.isdisjoint(nbrs):
            masks.append(0)
        else:
            masks.append(sum(map(bit, nbrs & members)))
    return masks


def color_classes(
    runs: list[int], masks: Sequence[int]
) -> tuple[list[int], list[int]]:
    """Greedy coloring of the candidates in ``runs``, class by class.

    Candidates are local positions, and ``masks[v]`` is ``v``'s
    neighbour mask.  The candidate order is given as ``runs``: nonempty
    bitmasks, each read in ascending position, one after the other.
    Each class is filled by one pass over the still-uncolored candidates
    in that order, admitting a vertex when it has no neighbour in the
    class so far.  Within a run the next admissible vertex is the lowest
    bit not yet ruled out, so a run costs one step per admitted vertex.
    This yields exactly the classes of first-fit coloring by vertex in
    candidate order.

    Returns ``(pieces, ends)``: class ``c`` (1-based) is
    ``pieces[ends[c - 2] : ends[c - 1]]`` (from 0 for ``c = 1``), its
    members as runs in candidate order.
    """
    pieces: list[int] = []
    ends: list[int] = []
    while runs:
        blocked = 0  # neighbours of the class's members so far
        left = []
        for run in runs:
            free = run & ~blocked
            if free:
                piece = 0
                while free:
                    low = free & -free
                    piece |= low
                    nbrs = masks[low.bit_length() - 1]
                    blocked |= nbrs
                    free &= ~nbrs
                    free ^= low
                pieces.append(piece)
                run ^= piece
            if run:
                left.append(run)
        ends.append(len(pieces))
        runs = left
    return pieces, ends


def _expand(
    masks: Sequence[int],
    members: Sequence[int],
    clique: list[int],
    runs: list[int],
    best: list[int],
    floor: int,
) -> None:
    """Branch and bound with the greedy-coloring upper bound.

    ``runs`` are the candidates, local positions into ``members`` (the
    root's candidate list) in the form :func:`color_classes` takes;
    ``clique`` holds vertex IDs.  Candidates are branched on from the
    last of the highest color class backwards (Tomita's order), and a
    vertex of color ``c`` is cut when ``|clique| + c`` cannot exceed
    ``max(len(best), floor)``.  Its subproblem's candidates are the
    candidates before it that are its neighbours: those of the lower
    classes, since its own class holds none.  Nothing smaller than
    ``floor`` is ever recorded.
    """
    pieces, ends = color_classes(runs, masks)
    size = len(clique)
    incumbent = max(len(best), floor)
    end = len(pieces)
    for color in range(len(ends), 0, -1):
        start = ends[color - 2] if color > 1 else 0
        lower = pieces[:start]
        for k in range(end - 1, start - 1, -1):
            piece = pieces[k]
            while piece:
                if size + color <= incumbent:
                    return  # every remaining vertex has an even smaller bound
                v = piece.bit_length() - 1
                piece ^= 1 << v
                nbrs = masks[v]
                clique.append(members[v])
                sub = []
                for run in lower:
                    if run & nbrs:
                        sub.append(run & nbrs)
                if sub:
                    _expand(masks, members, clique, sub, best, floor)
                    incumbent = max(len(best), floor)
                elif size + 1 > incumbent:
                    best[:] = clique
                    incumbent = size + 1
                clique.pop()
        end = start


def search_root(
    adjacency: Adjacency,
    root: int,
    candidates: Sequence[int],
    best: list[int],
    floor: int = 0,
) -> None:
    """Record in ``best`` the largest clique of ``root`` plus ``candidates``.

    ``candidates`` must all be neighbours of ``root``.  Only a clique
    larger than ``max(len(best), floor)`` is recorded; callers with a
    bound from elsewhere (e.g. a clique found at a different root) pass
    it as ``floor``.
    """
    if not candidates:
        if 1 > max(len(best), floor):
            best[:] = [root]
        return
    masks = _local_masks(adjacency, candidates)
    everyone = (1 << len(candidates)) - 1
    _expand(masks, candidates, [root], [everyone], best, floor)


def mc_brb(graph: Graph) -> list[int]:
    """Exact maximum clique (sorted) with the MC-BRB-style pipeline."""
    n = graph.num_vertices
    if n == 0:
        return []
    core, order, _k = core_decomposition(graph)
    best = heuristic_clique(graph, order)
    neighbors = graph.neighbors
    adjacency = NeighborSets(graph)
    # The roots visited so far: u's right-neighborhood is its neighbors
    # not yet visited.
    visited = bytearray(n)
    for u in order:
        visited[u] = 1
        # Core reduction: every member of a clique of size s has core
        # number >= s - 1, so a root (or candidate) with
        # core(v) + 1 <= |best| cannot appear in anything better.  This
        # subsumes the old degree filter (core(v) <= deg(v)).
        if core[u] + 1 <= len(best):
            continue
        right = [v for v in neighbors(u) if not visited[v]]
        if len(right) + 1 <= len(best):
            continue
        floor = len(best)
        right = [v for v in right if core[v] >= floor]
        if len(right) + 1 <= len(best):
            continue
        check_deadline()
        search_root(adjacency, u, right, best)
    return sorted(best)


def max_clique_with_root(
    graph: Graph,
    root: int,
    *,
    lower_bound: int = 0,
    adjacency: Adjacency | None = None,
) -> list[int]:
    """The largest clique containing ``root`` (``MC(root)``), sorted.

    ``lower_bound`` prunes branches that cannot beat an incumbent from a
    different root, in which case the returned clique may be *smaller*
    than ``MC(root)`` (possibly just ``[root]``) — exactly the contract
    the top-k search wants.  Pass ``adjacency`` (neighbor sets indexed
    by vertex, e.g. a list or a :class:`NeighborSets`) to amortize its
    construction across many roots.
    """
    if adjacency is None:
        adjacency = NeighborSets(graph)
    best: list[int] = []
    search_root(adjacency, root, graph.neighbors(root), best, lower_bound)
    return sorted(best) if best else [root]
