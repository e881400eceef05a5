"""``FilterPhase`` — Algorithm 2: the candidate set ``C``.

The filter phase applies the *edge-constrained* domination order
(Defs. 4–5): ``v ⊑ u`` requires an edge ``(u, v)`` **and**
``N[v] ⊆ N[u]``.  Vertices with an edge-constrained dominator cannot be
skyline members (Lemma 1), so the surviving set ``C`` is a sound
candidate superset of ``R`` that is computable by looking at edges only.

Two passes, one output
----------------------
:func:`scalar_filter_phase` is Algorithm 2 as printed: an outer loop
over ``u`` ascending that skips ``u`` once ``O(u)`` is set, and an
inner loop over ``v ∈ N(u)`` ascending that tests the edge-constrained
inclusion ``N[u] ⊆ N[v]`` by a sorted-list merge with early exit
(:func:`closed_inclusion_over_edge`) — "maintaining the size of the
intersection of the closed neighborhoods for the two ends of an edge",
as the paper describes.  (The printed pseudocode increments ``T(v)``
once per neighbor, which as written could only ever fire for degree-1
vertices and contradicts the paper's own Fig. 2a, where a clique has
``|C| = 1``; the merge implements the clearly intended semantics.)  It
is the reference: bloom Alg. 3 and the differential tests call it.

:func:`filter_phase`, the production pass, computes the same output in
four vectorized steps over the CSR arrays (:func:`~repro.graph.csr.
edge_index`):

1. **Pretest mask** — :func:`_edge_pretest` over every directed edge:
   ``deg(v) ≥ deg(u)`` plus the bracket and ID-sum conditions.  The
   last two cost about 0.2 ms on an R-MAT scale-10 graph, whose edges
   the next step rejects anyway, but on ``ws_large``, where degrees
   are nearly uniform and neighbors are near in ID, they cut the
   surviving edges from 1.46M to 0.21M and the pass's time by half.
2. **Pivot probe** — every surviving edge ``(u, v)`` is tested at once
   for ``u``'s pivot ``p(u)``, its minimum-degree neighbor
   (:attr:`~repro.graph.csr.EdgeIndex.pivot`): ``p(u) = v`` or
   ``v·n + p(u)`` in the edge-key hash set
   (:meth:`~repro.graph.csr.EdgeIndex.has_keys`).  A low-degree
   neighbor is the one a superset is least likely to hold, so the probe
   leaves few edges; a second probe, at the next-rarest neighbor,
   measured as no faster.
3. **Exact test** — the full ``N(u) \\ {v} ⊆ N(v)`` lookup on the
   survivors, in chunks of at most :data:`FILTER_KEY_BUDGET` keys.
4. **Ordered replay** — the scalar loop's writes, replayed in Python
   over the *included* edges only, in CSR order: skip a ``u`` already
   dominated when the scan reaches it, stop a row after its first
   strict domination, and apply the twin rule ("smaller ID wins, elif
   ``O(v) == v``") exactly as written.

Why the replay is bit for bit: the scalar loop reads and writes
``O(·)`` only on edges that pass the inclusion test, and whether an
edge passes is a fixed property of the graph, independent of ``O``.
Every other edge is a no-op for the state.  Replaying the loop's body
over the included edges, in the loop's own order, therefore performs
the same writes in the same order; no status or witness argument is
needed.

Counters describe the vectorized pass's own work, tallied on its one
path whether or not counters are passed: ``vertices_examined`` is
``n``, ``pair_tests`` the edges that pass the pretest (steps 2–3 run on
them), ``extra["filter_pretest_rejects"]`` the other ``2m − pair_tests``
and ``dominations_found`` the replay's writes.  The degree test is one
conjunct of the pretest, so the pass tallies no ``degree_skips``.  The
scalar reference keeps Alg. 2's early-exit tallies.

Worst-case cost of the scalar pass is
``O(Σ_{(u,v) ∈ E} (deg u + deg v))``; the paper states ``O(m)``, which
holds when the early exits fire quickly — typical on power-law inputs.
As in Algorithm 1, the dominator entry ``O(u)`` is written at most once.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Optional

import numpy as _np

from repro.core.counters import NULL_COUNTERS, SkylineCounters
from repro.graph.adjacency import Graph
from repro.graph.csr import (
    EdgeIndex,
    budget_slices,
    edge_index,
    gather_rows,
)

__all__ = [
    "filter_phase",
    "scalar_filter_phase",
    "closed_inclusion_over_edge",
]

#: Gathered subset-test keys (``Σ deg(u)`` over the surviving edges) per
#: chunk of the exact test — bounds the scratch arrays to a few tens of
#: MB however large the graph is.
FILTER_KEY_BUDGET = 1 << 22


def closed_inclusion_over_edge(graph: Graph, u: int, v: int) -> bool:
    """``True`` iff ``N[u] ⊆ N[v]`` given that ``(u, v)`` is an edge.

    With the edge present this reduces to ``N(u) \\ {v} ⊆ N(v)``.  When
    the two degrees are comparable a linear merge over the sorted lists
    is cheapest; when ``v`` is a hub with a far larger neighborhood, the
    merge would pay ``O(deg v)``, so the test switches to binary-searched
    membership at ``O(deg(u) · log deg(v))`` — this adaptivity is what
    keeps the filter phase near-linear on hub-heavy graphs (the paper's
    Theorem 2 regime).
    """
    nbrs_u = graph.neighbors(u)
    nbrs_v = graph.neighbors(v)
    len_v = len(nbrs_v)
    if len_v > 8 * len(nbrs_u):
        lo = 0
        for x in nbrs_u:
            if x == v:
                continue
            lo = bisect_left(nbrs_v, x, lo)
            if lo == len_v or nbrs_v[lo] != x:
                return False
            lo += 1
        return True
    i = 0
    for x in nbrs_u:
        if x == v:
            continue
        # Advance the pointer into N(v) up to x.
        while i < len_v and nbrs_v[i] < x:
            i += 1
        if i == len_v or nbrs_v[i] != x:
            return False
        i += 1
    return True


def _edge_pretest(indptr, indices):
    """Bulk necessary conditions for ``N[u] ⊆ N[v]``, one flag per CSR slot.

    For the directed edge stored at slot ``indptr[u] + j`` (``v`` being
    the ``j``-th neighbor of ``u``), the flag is ``True`` iff every
    cheap necessary condition for ``v`` dominating ``u`` holds:

    * ``deg(v) >= deg(u)`` (a superset is at least as large);
    * ``min N[v] <= min N[u]`` and ``max N[v] >= max N[u]`` (a superset
      brackets its subset — sorted rows give both extremes in O(1));
    * ``Σ N[v] >= Σ N[u]`` (vertex IDs are non-negative, so a superset's
      ID sum dominates).

    Edges whose flag is ``False`` cannot pass the exact test, so both
    passes skip them wholesale.  Cost: a handful of vectorized passes
    over the ``2m`` directed edges.
    """
    n = len(indptr) - 1
    indptr = indptr.astype(_np.int64, copy=False)
    deg = indptr[1:] - indptr[:-1]
    self_ids = _np.arange(n, dtype=_np.int64)
    nz = deg > 0
    # Closed-neighborhood extremes: the row is sorted, so only the first
    # and last entries compete with the vertex's own ID.
    cmin = self_ids.copy()
    cmax = self_ids.copy()
    cmin[nz] = _np.minimum(self_ids[nz], indices[indptr[:-1][nz]])
    cmax[nz] = _np.maximum(self_ids[nz], indices[indptr[1:][nz] - 1])
    # Closed-neighborhood ID sums via one prefix sum over indices.
    prefix = _np.zeros(len(indices) + 1, dtype=_np.int64)
    _np.cumsum(indices, dtype=_np.int64, out=prefix[1:])
    csum = prefix[indptr[1:]] - prefix[indptr[:-1]] + self_ids

    sub, dom = _np.repeat(self_ids, deg), indices
    ok = deg[dom] >= deg[sub]
    ok &= cmin[dom] <= cmin[sub]
    ok &= cmax[dom] >= cmax[sub]
    ok &= csum[dom] >= csum[sub]
    return ok


def scalar_filter_phase(
    graph: Graph, *, counters: Optional[SkylineCounters] = None
) -> tuple[list[int], list[int]]:
    """Algorithm 2 as a scalar loop — the reference :func:`filter_phase`
    reproduces bit for bit, and the filter of bloom Alg. 3.

    Returns ``(candidates, dominator)`` where ``candidates`` is sorted and
    ``dominator[u] == u`` exactly for ``u ∈ C``.  For excluded vertices,
    ``dominator[u]`` is an adjacent vertex ``w`` with ``N[u] ⊆ N[w]``.

    The pair scan is preceded by the vectorized :func:`_edge_pretest`,
    which eliminates most exact inclusion merges in bulk; the surviving
    pairs run the exact scalar test in scan order.  Pretest eliminations
    are tallied under ``counters.extra["filter_pretest_rejects"]``.
    """
    stats = counters if counters is not None else NULL_COUNTERS
    n = graph.num_vertices
    dominator = list(range(n))
    deg = graph.degrees()

    indptr, indices = graph.csr_arrays()
    # bytes index at C speed in the scan (0/1 per slot).
    pretest = _edge_pretest(indptr, indices).tobytes()
    row_start = indptr.tolist()
    pretest_rejects = 0

    for u in range(n):
        if dominator[u] != u:
            continue
        stats.vertices_examined += 1
        deg_u = deg[u]
        base = row_start[u]
        for j, v in enumerate(graph.neighbors(u)):
            deg_v = deg[v]
            if deg_v < deg_u:
                # N[u] ⊆ N[v] would force deg(v) >= deg(u).
                stats.degree_skips += 1
                continue
            if not pretest[base + j]:
                # A bulk necessary condition already failed: the exact
                # merge below could only confirm the rejection.
                pretest_rejects += 1
                continue
            stats.pair_tests += 1
            if not closed_inclusion_over_edge(graph, u, v):
                continue
            if deg_v == deg_u:
                # N[u] = N[v]: true twins; the smaller ID wins (Def. 5).
                if u > v and dominator[u] == u:
                    dominator[u] = v
                    stats.dominations_found += 1
                elif dominator[v] == v:
                    dominator[v] = u
                    stats.dominations_found += 1
            else:
                if dominator[u] == u:
                    dominator[u] = v
                    stats.dominations_found += 1
                    break

    if n and counters is not None:
        stats.extra["filter_pretest_rejects"] = (
            stats.extra.get("filter_pretest_rejects", 0) + pretest_rejects
        )

    candidates = [u for u in range(n) if dominator[u] == u]
    return candidates, dominator


def _included_edges(index: EdgeIndex, live):
    """The edges ``(u, v)`` with ``N[u] ⊆ N[v]`` among the slots ``live``.

    ``live`` holds ascending CSR slots ``(u, v)`` — column ``v``, the
    potential dominator — that passed the pretest.  Returns the
    included ``(u, v)`` as arrays in CSR order (``u``, then ``v``,
    ascending).
    """
    indptr, indices, deg, row, pivot = index[:5]
    n = len(deg)
    u = row[live]
    v = indices[live].astype(_np.int64)
    # Pivot probe: p(u) ∈ N(u) \ {v} must be in N(v).
    x = pivot[u]
    keep = (x == v) | index.has_keys(v * n + x)
    u, v = u[keep], v[keep]
    # Exact test of every survivor, in budget-sized chunks.
    lens = deg[u]
    accept = _np.empty(u.size, dtype=bool)
    for lo, hi in budget_slices(lens, FILTER_KEY_BUDGET):
        cl = lens[lo:hi]
        x = gather_rows(indices, indptr[u[lo:hi]], cl)
        owner = _np.repeat(v[lo:hi], cl)
        hit = (x == owner) | index.has_keys(owner * n + x)
        accept[lo:hi] = _np.logical_and.reduceat(hit, _np.cumsum(cl) - cl)
    return u[accept], v[accept]


def _replay(dominator: list[int], us, vs, strict) -> list[int]:
    """The scalar loop's writes, replayed over the included edges only.

    Returns every vertex written, in write order.
    """
    dominated = []
    current = -1
    active = False
    for u, v, is_strict in zip(us, vs, strict):
        if u != current:
            current = u
            active = dominator[u] == u
        if not active:
            continue
        if is_strict:
            if dominator[u] == u:
                dominator[u] = v
                dominated.append(u)
                active = False
        elif u > v and dominator[u] == u:
            # N[u] = N[v]: true twins; the smaller ID wins (Def. 5).
            dominator[u] = v
            dominated.append(u)
        elif dominator[v] == v:
            dominator[v] = u
            dominated.append(v)
    return dominated


def filter_phase(
    graph: Graph,
    *,
    counters: Optional[SkylineCounters] = None,
    index: Optional[EdgeIndex] = None,
) -> tuple[list[int], list[int]]:
    """Compute the neighborhood candidates ``C`` and the dominator array.

    Returns ``(candidates, dominator)`` where ``candidates`` is sorted and
    ``dominator[u] == u`` exactly for ``u ∈ C``.  For excluded vertices,
    ``dominator[u]`` is an adjacent vertex ``w`` with ``N[u] ⊆ N[w]``.

    Vectorized over the graph's CSR arrays, with every edge
    test a lookup in the edge-key hash set of ``index``, the graph's
    :func:`~repro.graph.csr.edge_index` (built here when not given: a
    caller that also runs the block refine passes the one it shares).
    Output is bit for bit :func:`scalar_filter_phase`'s; the counters
    tally this pass's own work (see the module docstring).
    """
    n = graph.num_vertices
    dominator = list(range(n))
    if not n:
        return [], dominator
    if index is None:
        index = edge_index(graph)
    indptr, indices, deg = index[:3]
    live = _np.flatnonzero(_edge_pretest(indptr, indices))
    us, vs = _included_edges(index, live)
    strict = deg[vs] > deg[us]
    dominated = _replay(dominator, us.tolist(), vs.tolist(), strict.tolist())

    stats = counters if counters is not None else NULL_COUNTERS
    stats.vertices_examined += n
    stats.pair_tests += len(live)
    stats.dominations_found += len(dominated)
    stats.extra["filter_pretest_rejects"] = stats.extra.get(
        "filter_pretest_rejects", 0
    ) + len(indices) - len(live)

    in_c = _np.ones(n, dtype=bool)
    in_c[dominated] = False
    return _np.flatnonzero(in_c).tolist(), dominator
