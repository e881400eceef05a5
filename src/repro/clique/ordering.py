"""Degeneracy ordering — the workhorse vertex order of clique solvers.

The degeneracy ordering repeatedly removes minimum-degree vertices; its
*core numbers* bound clique size (``ω ≤ degeneracy + 1``) and the
"right neighborhood" of each vertex in the ordering has size at most the
degeneracy, which is what keeps branch-and-bound subproblems tiny on
sparse graphs (the structural insight behind MC-BRB's ego-network
decomposition).

Both entry points delegate to the round-based batch peel of
:mod:`repro.graph.cores`, vectorized over the graph's CSR ndarrays
(the test suite replays its schedule in pure Python as
the oracle).  Batches peel ID-ascending; any such schedule gives a
degeneracy ordering, and core numbers and degeneracy are properties of
the graph, not of the schedule.  The solvers of :mod:`repro.clique`
call :func:`~repro.graph.cores.core_decomposition` directly, once per
call, to get order and core numbers from one peel.
"""

from __future__ import annotations

from repro.graph.adjacency import Graph
from repro.graph.cores import core_decomposition

__all__ = ["degeneracy_ordering", "core_numbers"]


def degeneracy_ordering(graph: Graph) -> tuple[list[int], int]:
    """Return ``(order, degeneracy)``.

    ``order`` lists the vertices in peel order (min-degree levels
    first); ``degeneracy`` is the deepest level peeled.  Runs in
    ``O(n + m)`` work, vectorized per cascade round on the CSR
    substrate.
    """
    decomposition = core_decomposition(graph)
    return list(decomposition.order), decomposition.degeneracy


def core_numbers(graph: Graph) -> list[int]:
    """``core[u]`` = largest ``k`` such that ``u`` lies in the k-core."""
    return list(core_decomposition(graph).core)
