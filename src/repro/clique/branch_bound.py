"""``BaseMCC`` — the simple branch-and-bound maximum-clique framework.

Sec. IV-C describes the baseline framework: grow a clique ``H`` from a
candidate set ``X`` (initially ``V``) until no vertex can extend it,
branching over candidates and pruning with the trivial bound
``|H| + |X| ≤ |best|``.  This is the reference point the skyline-pruned
solver is contrasted with — intentionally unsophisticated (no coloring,
no degeneracy decomposition), so keep it away from large dense graphs.
It is also the tests' oracle for the clique size the other solvers
must reach.

Also exported: :func:`bb_max_clique_in_sets`, its recursive core over
set-based adjacency.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.clique.ordering import core_numbers
from repro.graph.adjacency import Graph

__all__ = ["base_mcc", "bb_max_clique_in_sets"]


def bb_max_clique_in_sets(
    adjacency: Sequence[set[int]],
    clique: list[int],
    candidates: list[int],
    best: list[int],
) -> None:
    """Recursive branch and bound over set-based adjacency.

    Extends ``clique`` with vertices from ``candidates`` (all adjacent to
    every clique member), updating ``best`` in place whenever a larger
    clique is completed.  The only bound is the candidate count.
    """
    if len(clique) + len(candidates) <= len(best):
        return
    if not candidates:
        if len(clique) > len(best):
            best[:] = clique
        return
    # Branch on each candidate; iterate a copy because we shrink the list.
    local = list(candidates)
    while local:
        if len(clique) + len(local) <= len(best):
            return
        v = local.pop()
        adj_v = adjacency[v]
        clique.append(v)
        bb_max_clique_in_sets(
            adjacency, clique, [w for w in local if w in adj_v], best
        )
        clique.pop()


def base_mcc(
    graph: Graph, *, initial_bound: Optional[list[int]] = None
) -> list[int]:
    """Maximum clique via the plain branch-and-bound framework.

    Returns the clique as a sorted vertex list.  Exponential worst case;
    fine for the modest graphs used in tests and as a correctness oracle.
    """
    n = graph.num_vertices
    if n == 0:
        return []
    adjacency = [set(graph.neighbors(u)) for u in range(n)]
    best: list[int] = list(initial_bound) if initial_bound else []
    candidates = list(range(n))
    if best:
        # Work avoidance when a bound is handed in: a clique beating the
        # incumbent needs core number >= |best| on every member, so the
        # rest of the vertex set never enters the search tree.  The
        # framework itself stays bound-by-candidate-count only.
        core = core_numbers(graph)
        candidates = [u for u in candidates if core[u] >= len(best)]
    bb_max_clique_in_sets(adjacency, [], candidates, best)
    return sorted(best)
