"""``FilterPhase`` — Algorithm 2: the candidate set ``C``.

The filter phase applies the *edge-constrained* domination order
(Defs. 4–5): ``v ⊑ u`` requires an edge ``(u, v)`` **and**
``N[v] ⊆ N[u]``.  Vertices with an edge-constrained dominator cannot be
skyline members (Lemma 1), so the surviving set ``C`` is a sound
candidate superset of ``R`` that is computable by looking at edges only.

Implementation note
-------------------
The inclusion test for an edge ``(u, v)`` is a sorted-list merge
computing ``|N[u] ∩ N[v]|`` with early exit — "maintaining the size of
the intersection of the closed neighborhoods for the two ends of an
edge", as the paper describes.  (The printed pseudocode of Algorithm 2
increments ``T(v)`` once per neighbor, which as written could only ever
fire for degree-1 vertices and contradicts the paper's own Fig. 2a,
where a clique has ``|C| = 1``; the merge below implements the clearly
intended semantics.)  Worst-case cost is
``O(Σ_{(u,v) ∈ E} (deg u + deg v))``; the paper states ``O(m)``, which
holds when the early exits fire quickly — typical on power-law inputs.

As in Algorithm 1, the dominator entry ``O(u)`` is written at most once,
and a vertex whose ``O(u)`` is already set is skipped entirely.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Optional

import numpy as _np

from repro.core.counters import NULL_COUNTERS, SkylineCounters
from repro.graph.adjacency import Graph

__all__ = ["filter_phase", "closed_inclusion_over_edge"]


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


def _edge_pretest(indptr, indices) -> bytes:
    """Bulk necessary conditions for ``N[u] ⊆ N[v]``, one flag per CSR slot.

    For the directed edge stored at slot ``indptr[u] + j`` (``v`` being
    the ``j``-th neighbor of ``u``), the flag byte is nonzero iff every
    cheap necessary condition for ``v`` dominating ``u`` holds:

    * ``deg(v) >= deg(u)`` (a superset is at least as large);
    * ``min N[v] <= min N[u]`` and ``max N[v] >= max N[u]`` (a superset
      brackets its subset — sorted rows give both extremes in O(1));
    * ``Σ N[v] >= Σ N[u]`` (vertex IDs are non-negative, so a superset's
      ID sum dominates).

    Edges whose flag is zero cannot pass the exact merge test, so the
    scalar scan skips them wholesale; edges whose flag is set still run
    :func:`closed_inclusion_over_edge`, keeping the output bit-for-bit
    the list-backed scan's.  Cost: a handful of vectorized passes over
    the ``2m`` directed edges.
    """
    n = len(indptr) - 1
    deg = _np.diff(indptr).astype(_np.int64)
    self_ids = _np.arange(n, dtype=_np.int64)
    nz = deg > 0
    # Closed-neighborhood extremes: the row is sorted, so only the first
    # and last entries compete with the vertex's own ID.
    cmin = self_ids.copy()
    cmax = self_ids.copy()
    cmin[nz] = _np.minimum(
        self_ids[nz], indices[indptr[:-1][nz]].astype(_np.int64)
    )
    cmax[nz] = _np.maximum(
        self_ids[nz], indices[indptr[1:][nz] - 1].astype(_np.int64)
    )
    # Closed-neighborhood ID sums via one prefix sum over indices.
    prefix = _np.zeros(len(indices) + 1, dtype=_np.int64)
    _np.cumsum(indices, dtype=_np.int64, out=prefix[1:])
    csum = prefix[indptr[1:]] - prefix[indptr[:-1]] + self_ids

    v_of = indices  # int32 fancy-index, no copy needed
    ok = deg[v_of] >= _np.repeat(deg, deg)
    ok &= cmin[v_of] <= _np.repeat(cmin, deg)
    ok &= cmax[v_of] >= _np.repeat(cmax, deg)
    ok &= csum[v_of] >= _np.repeat(csum, deg)
    # bytes index at C speed in the scalar scan (0/1 per slot).
    return ok.tobytes()


def filter_phase(
    graph: Graph, *, counters: Optional[SkylineCounters] = None
) -> tuple[list[int], list[int]]:
    """Compute the neighborhood candidates ``C`` and the dominator array.

    Returns ``(candidates, dominator)`` where ``candidates`` is sorted and
    ``dominator[u] == u`` exactly for ``u ∈ C``.  For excluded vertices,
    ``dominator[u]`` is an adjacent vertex ``w`` with ``N[u] ⊆ N[w]``.

    On a :class:`~repro.graph.csr.CSRGraph` the pair scan is preceded by
    a vectorized pretest (:func:`_edge_pretest`) that eliminates most
    exact inclusion merges in bulk; the surviving pairs run the same
    scalar test in the same order, so candidates and dominators are
    identical to the list-backed path (the differential suite pins
    this).  Pretest eliminations are tallied under
    ``counters.extra["filter_pretest_rejects"]``.
    """
    stats = counters if counters is not None else NULL_COUNTERS
    n = graph.num_vertices
    dominator = list(range(n))
    deg = graph.degrees()

    csr_arrays = getattr(graph, "csr_arrays", None)
    pretest = None
    row_start = None
    if csr_arrays is not None and n:
        indptr, indices = csr_arrays()
        pretest = _edge_pretest(indptr, indices)
        row_start = indptr.tolist()
    pretest_rejects = 0

    for u in range(n):
        if dominator[u] != u:
            continue
        stats.vertices_examined += 1
        deg_u = deg[u]
        base = row_start[u] if pretest is not None else 0
        for j, v in enumerate(graph.neighbors(u)):
            deg_v = deg[v]
            if deg_v < deg_u:
                # N[u] ⊆ N[v] would force deg(v) >= deg(u).
                stats.degree_skips += 1
                continue
            if pretest is not None and not pretest[base + j]:
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

    if pretest is not None and counters is not None:
        stats.extra["filter_pretest_rejects"] = (
            stats.extra.get("filter_pretest_rejects", 0) + pretest_rejects
        )

    candidates = [u for u in range(n) if dominator[u] == u]
    return candidates, dominator
