"""``FilterRefineSkyBlock`` — the block-vectorized refine kernel.

The paper's bloom refine (Alg. 3) walks the 2-hop neighborhood of each
candidate in Python, one pair at a time.  This module evaluates the
same decisions in **blocks** over the CSR ndarrays, and scans far less
than the full 2-hop neighborhood to do it.  It is the production
refine: ``neighborhood_skyline``'s ``"auto"`` default runs it.

Pivot rows
----------
Any dominator ``w`` of ``u`` satisfies ``N(u) ⊆ N(w)``, so ``w`` is
adjacent to *every* neighbor of ``u`` — in particular to ``p(u)``,
``u``'s minimum-degree neighbor (ties to the smaller ID).  The kernel
therefore gathers candidate dominators from the single **pivot row**
``N(p(u))`` instead of the whole 2-hop neighborhood — the least-frequent
list first, as in the LC-Join baseline.  A row holds
``deg(p(u)) ≤ Σ_{v∈N(u)} deg(v) / deg(u)`` entries, so the pivot
gather is never larger than a full 2-hop gather and usually far
smaller.  The skip ladder (self, degree, frozen filter-phase
domination) runs as boolean masks over the row,
and every surviving pair ``(u, w)`` is tested exactly by looking the
keys ``w·n + x``, ``x ∈ N(u)``, up in the hash set of the CSR edge
keys ``row·n + col`` (:meth:`~repro.graph.csr.EdgeIndex.has_keys`):
one vectorized lookup per block.  A pivot row lists each vertex once,
so no pair is tested twice.

The sequential refine loop of Alg. 3 looks order-dependent — it skips
potential dominators ``w`` already refine-dominated — but the
dependence is shallow, and the kernel splits refine into two passes
that reproduce the sequential output bit for bit:

1. **Status pass** — which candidates are dominated, testing against
   the frozen filter-phase dominator state only.  Skipping a
   refine-dominated ``w`` is work avoidance, never a correctness
   requirement (a pair that passes the test certifies a genuine
   domination whatever ``w``'s own status), and this pass tests a
   superset of the sequential scan's pairs, so the dominated *set*
   equals the sequential one.  Settlement per pair is the scalar rule,
   evaluated as masks: strict domination (``deg(w) > deg(u)``) or
   mutual inclusion lost on the Def. 2 ID tie-break (``w < u``).
2. **Witness pass** — for each dominated candidate, the exact entry
   the sequential scan would have written.  When the sequential loop
   reaches ``u``, every candidate below ``u`` has its final status, so
   that entry is a pure function of the status-pass output: the
   *first* settling ``w``
   in scan order (``v`` ascending in ``N(u)``, ``w`` ascending within
   each ``N(v)``) under the sequential skip predicate "``w``
   filter-dominated, or ``w < u`` and refine-dominated".  Every
   settling ``w`` is adjacent to ``v₀ = min N(u)``, the first row the
   sequential scan reads, so all of them lie in that first row and the
   first one met is the *smallest*.  The smallest settling ``w`` does
   not depend on which row contains it, so the batched pass reads it
   off the pivot rows: one scan for a whole block of dominated
   candidates, no per-vertex loop.

So ``skyline`` / ``dominator`` / ``candidates`` are bit-for-bit the
sequential bloom baseline's, which the differential suite pins.

The pivots and the edge-key hash set come from the same
:func:`~repro.graph.csr.edge_index` the filter phase uses:
:func:`filter_refine_block_sky` builds it once and hands it to both.

Counter semantics
-----------------
The kernel tallies only values it computes anyway, on the one path it
takes with or without counters.  ``vertices_examined`` is ``|C|`` (one
status-pass visit per candidate) and ``dominations_found`` the number
of refine-dominated candidates.  ``pair_tests`` counts the pivot-row
pairs that reach the subset test in both passes: every entry that
survives the skip ladder.  The pivot gather never visits the rest of
the 2-hop neighborhood, so the refine adds no ``degree_skips`` or
``dominated_skips``: those read the filter phase's alone, and
``bloom_*`` and ``nbr_checks`` stay zero.  Totals are deterministic for
any block size.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as _np

from repro.core.counters import NULL_COUNTERS, SkylineCounters
from repro.core.deadline import check as check_deadline
from repro.core.filter_phase import filter_phase
from repro.core.result import SkylineResult
from repro.graph.adjacency import Graph
from repro.graph.csr import EdgeIndex, budget_slices, edge_index, gather_rows

__all__ = [
    "BLOCK_ENTRY_BUDGET",
    "block_refine_pass",
    "filter_refine_block_sky",
]

#: Subset-test lookups (``Σ deg(u) · deg(p(u))``) per block — bounds the
#: flat scratch arrays to a few tens of MB however large the graph is.
BLOCK_ENTRY_BUDGET = 1 << 22


def _smallest_settling(
    index: EdgeIndex, filter_ok, refine_dominated, us, stats
):
    """Per ``u`` of the block ``us``: the smallest ``w`` that settles
    ``u``, ``-1`` where none does.  Skips filter-dominated ``w`` and,
    in the witness pass (``refine_dominated`` given), refine-dominated
    ``w < u``."""
    indptr, indices, deg = index.indptr, index.indices, index.deg
    n = len(deg)
    found = _np.full(len(us), -1, dtype=_np.int64)
    pivot = index.pivot[us]
    row_lens = _np.where(pivot >= 0, deg[pivot], 0)
    w = gather_rows(indices, indptr[pivot], row_lens)
    if not w.size:
        return found
    entry = _np.repeat(_np.arange(len(us), dtype=_np.int64), row_lens)
    u = us[entry]
    deg_us = deg[us]
    mask = (w != u) & (deg[w] >= deg_us[entry]) & filter_ok[w]
    if refine_dominated is not None:
        mask &= ~((w < u) & refine_dominated[w])
    pair_u = entry[mask]
    pair_w = w[mask].astype(_np.int64)
    stats.pair_tests += int(pair_u.size)
    if not pair_u.size:
        return found

    # N(u) ⊆ N(w): every key w·n + x, x ∈ N(u), is a CSR edge key.
    lens = deg_us[pair_u]
    keys = _np.repeat(pair_w * n, lens) + gather_rows(
        indices, indptr[us[pair_u]], lens
    )
    hit = index.has_keys(keys)
    accept = _np.logical_and.reduceat(hit, _np.cumsum(lens) - lens)
    settle = accept & ((deg[pair_w] > lens) | (pair_w < us[pair_u]))
    settled_u, settled_w = pair_u[settle], pair_w[settle]
    # Pairs run u-major, w ascending: each u's first settling pair
    # holds its smallest settling w.
    first = _np.ones(settled_u.size, dtype=bool)
    first[1:] = settled_u[1:] != settled_u[:-1]
    found[settled_u[first]] = settled_w[first]
    return found


def block_refine_pass(
    index: EdgeIndex,
    candidates: Sequence[int],
    dominator: list[int],
    stats: SkylineCounters,
) -> list[int]:
    """Run the block refine in place over ``dominator``.

    The counterpart of
    :func:`~repro.core.filter_refine.bloom_refine_pass` for the block
    kernel: takes the graph's :func:`~repro.graph.csr.edge_index` and
    the filter phase's output, writes each dominated candidate's
    sequential witness and returns those candidates, ascending.  Both
    passes scan in blocks of at most :data:`BLOCK_ENTRY_BUDGET`
    subset-test lookups.
    """
    deg, pivot = index.deg, index.pivot
    n = len(deg)
    filter_ok = _np.asarray(dominator, dtype=_np.int64) == _np.arange(n)
    # Subset-test lookups per vertex, the quantity blocks are sized by
    # (isolated vertices cost nothing: deg(u) = 0).
    cost = deg * deg[pivot]

    def scan(us, refine_dominated):
        found = _np.empty(len(us), dtype=_np.int64)
        for lo, hi in budget_slices(cost[us], BLOCK_ENTRY_BUDGET):
            check_deadline()
            found[lo:hi] = _smallest_settling(
                index, filter_ok, refine_dominated, us[lo:hi], stats
            )
        return found

    # Status pass: candidates scan in ascending order, so the dominated
    # ones come out ascending.
    cand = _np.asarray(candidates, dtype=_np.int64)
    stats.vertices_examined += len(cand)
    dominated = cand[scan(cand, None) >= 0]
    stats.dominations_found += len(dominated)

    # Witness pass, under the sequential scan's skip predicate.
    refine_dominated = _np.zeros(n, dtype=bool)
    refine_dominated[dominated] = True
    witnesses = scan(dominated, refine_dominated)
    missing = _np.flatnonzero(witnesses < 0)
    if missing.size:
        raise RuntimeError(
            f"refine witness for vertex {int(dominated[missing[0]])} "
            "vanished between passes; this indicates a bug in the status "
            "pass"
        )
    dominated = dominated.tolist()
    for u, w in zip(dominated, witnesses.tolist()):
        dominator[u] = w
    return dominated


def filter_refine_block_sky(
    graph: Graph,
    *,
    counters: Optional[SkylineCounters] = None,
) -> SkylineResult:
    """Compute the neighborhood skyline with the block refine kernel.

    Same filter phase, same result as
    :func:`~repro.core.filter_refine.filter_refine_sky` — bit for bit —
    with the refine phase evaluated in vectorized blocks.  Both phases
    share one :func:`~repro.graph.csr.edge_index`, built here and
    dropped on return.
    """
    index = edge_index(graph)
    candidates, dominator = filter_phase(
        graph, counters=counters, index=index
    )
    dominated = block_refine_pass(
        index,
        candidates,
        dominator,
        counters if counters is not None else NULL_COUNTERS,
    )

    # The skyline: the candidates the refine left undominated.
    refined = set(dominated)
    return SkylineResult(
        skyline=tuple(u for u in candidates if u not in refined),
        dominator=tuple(dominator),
        candidates=tuple(candidates),
        algorithm="FilterRefineSkyBlock",
        counters=counters,
    )
