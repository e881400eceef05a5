"""k-core decomposition — the degeneracy substrate for clique search.

The k-core of a graph is its maximal subgraph of minimum degree ``k``;
``core(u)`` is the largest ``k`` whose core contains ``u`` (Batagelj &
Zaveršnik, "Generalized Cores").  The clique code leans on it: the peel
order is a degeneracy ordering (right-neighborhoods of size at most the
degeneracy), and a clique of size ``s`` forces ``core(v) ≥ s - 1`` on
every member — the work-avoidance bound the solvers of
:mod:`repro.clique` skip roots and candidates with.  Each solver call
runs one peel and shares its ``order`` and ``core`` between its
heuristic and its root loop.

The decomposition is computed by **round-based batch peeling** rather
than the classic one-vertex-at-a-time bucket queue: at level ``k``,
peel *every* remaining vertex of degree ≤ ``k`` at once (ascending ID
within a batch), decrement the survivors' degrees in bulk, and cascade
until the level empties.  Batch peeling is what vectorizes: each
cascade round is one gather of the batch's rows, one ``np.bincount`` of
it and one ``O(n)`` mask for the next batch, instead of a Python loop
per edge.  The test suite replays the same schedule in pure Python as
the oracle for the peel order.

The bincount rounds replaced ``np.unique`` ones (a sort per round) with
identical output.  Best of 3-50 in-process runs on a 2-vCPU x86-64 VM
(Python 3.11, numpy 2.4): an n = 400 copying-model graph (16 rounds)
peels in 0.5 ms against 1.0, an R-MAT scale-10 graph (57 rounds) in
2.1 ms against 4.0, and ``kron_large`` (n = 131,072, 114 rounds) in
91 ms against 132.

>>> from repro.graph.karate import karate_club
>>> core_decomposition(karate_club()).degeneracy
4
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as _np

from repro.graph.adjacency import Graph
from repro.graph.csr import gather_rows

__all__ = ["CoreDecomposition", "core_decomposition"]


class CoreDecomposition(NamedTuple):
    """The full output of one peel: core numbers, peel order, degeneracy.

    ``core[u]`` is vertex ``u``'s core number; ``order`` lists all
    vertices in peel order (a valid degeneracy ordering: every vertex
    has at most ``degeneracy`` neighbors later in the order);
    ``degeneracy`` equals ``max(core)`` (0 on the empty graph).  Both
    sequences hold plain Python ints.
    """

    core: list[int]
    order: list[int]
    degeneracy: int


def core_decomposition(graph: Graph) -> CoreDecomposition:
    """Peel ``graph`` completely; see :class:`CoreDecomposition`.

    Vectorized over the graph's CSR arrays.
    """
    n = graph.num_vertices
    if n == 0:
        return CoreDecomposition([], [], 0)
    indptr, indices = graph.csr_arrays()
    indptr = indptr.astype(_np.int64, copy=False)
    # row_len stays the structural CSR row length (it sizes the ragged
    # gathers); deg is the residual degree the peel decrements.
    row_len = indptr[1:] - indptr[:-1]
    deg = row_len.astype(_np.int64, copy=True)
    alive = _np.ones(n, dtype=bool)
    core = _np.zeros(n, dtype=_np.int64)
    order = _np.empty(n, dtype=_np.int64)
    pos = 0
    k = 0
    while pos < n:
        live_deg = deg[alive]
        k = max(k, int(live_deg.min()))
        batch = _np.flatnonzero(alive & (deg <= k))
        while batch.size:
            alive[batch] = False
            core[batch] = k
            order[pos : pos + batch.size] = batch
            pos += batch.size
            # The batch's neighbor rows in one gather, counted per vertex.
            nbrs = gather_rows(indices, indptr[batch], row_len[batch])
            deg -= _np.bincount(nbrs, minlength=n)
            # Every live vertex was above the level before this round, so
            # those at or below it now are the ones the round pushed
            # across; flatnonzero keeps them ID-ascending.
            batch = _np.flatnonzero(alive & (deg <= k))
    return CoreDecomposition(core.tolist(), order.tolist(), int(core.max()))
