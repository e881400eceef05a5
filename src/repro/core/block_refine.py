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

The pivot rows and the edge-key hash set come from the same
:func:`~repro.graph.csr.edge_index` the filter phase uses:
:func:`filter_refine_block_sky` builds it once and hands it to both.

Counter semantics
-----------------
``pair_tests`` counts the pivot-row pairs that reach the subset test
in both passes: every entry that survives the skip ladder.  That now
includes the few dozen entries per R-MAT scale-10 graph a core-number
pretest used to reject; the pretest was deleted because computing the
core numbers cost more than the subset tests it saved.
``degree_skips`` and ``dominated_skips`` keep their full 2-hop meaning
— every ``(v, w)`` visit a status or witness scan of the whole 2-hop
neighborhood would skip — but are computed without that scan, from
per-row degree-sorted prefix counts (one ``searchsorted`` per visited
row); uninstrumented runs skip that arithmetic.
``vertices_examined`` and ``dominations_found`` count one visit per
candidate and one per domination; the skip tallies never undercount
the sequential scan's.  ``bloom_*`` and ``nbr_checks`` stay zero.
Totals are deterministic for any block size.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as _np

from repro.core.counters import NULL_COUNTERS, SkylineCounters
from repro.core.deadline import check as check_deadline
from repro.core.filter_phase import filter_phase
from repro.core.result import SkylineResult
from repro.errors import ParameterError
from repro.graph.adjacency import Graph
from repro.graph.csr import EdgeIndex, budget_slices, edge_index, gather_rows

__all__ = [
    "BLOCK_ENTRY_BUDGET",
    "BlockRefineContext",
    "block_refine_pass",
    "block_status_chunk",
    "block_witness_chunk",
    "filter_refine_block_sky",
]

#: Subset-test lookups (``Σ deg(u) · deg(p(u))``) per block — bounds the
#: flat scratch arrays to a few tens of MB however large the graph is.
BLOCK_ENTRY_BUDGET = 1 << 22


class BlockRefineContext:
    """Shared ndarray state for block refine scans.

    Built once per pass from the graph's
    :func:`~repro.graph.csr.edge_index` and the frozen filter-phase
    output; the block scans only read it (apart from the lazily
    installed witness flags and counter keys, which are themselves
    frozen once set).
    """

    __slots__ = (
        "n",
        "indptr",
        "indices",
        "deg",
        "filter_ok",
        "cand",
        "pivot",
        "cost",
        "edge_index",
        "entry_budget",
        "refine_dominated",
        "_skip_keys",
        "_refine_rows",
    )

    def __init__(
        self,
        index: EdgeIndex,
        candidates: Sequence[int],
        dominator: Sequence[int],
        *,
        entry_budget: int = BLOCK_ENTRY_BUDGET,
    ):
        self.edge_index = index
        n = self.n = len(index.deg)
        self.indptr = index.indptr
        self.indices = index.indices
        self.deg = index.deg
        dom = _np.asarray(dominator, dtype=_np.int64)
        self.filter_ok = dom == _np.arange(n, dtype=_np.int64)
        self.cand = _np.asarray(candidates, dtype=_np.int64)
        # Each vertex's minimum-degree neighbor (ties to the smaller
        # ID) heads its degree-ordered row; -1 for isolated vertices.
        self.pivot = _np.full(n, -1, dtype=_np.int64)
        rows = _np.flatnonzero(self.deg)
        self.pivot[rows] = index.by_degree[self.indptr[rows]]
        # Subset-test lookups per candidate, the quantity block sizing
        # budgets (isolated vertices cost nothing: deg(u) = 0).
        self.cost = self.deg * self.deg[self.pivot]
        self.entry_budget = entry_budget
        #: Status-pass output as per-vertex flags; installed once by
        #: :meth:`ensure_refine_dominated` before any witness scan.
        self.refine_dominated = None
        self._skip_keys = None
        self._refine_rows = None

    def ensure_refine_dominated(self, dominated: Sequence[int]) -> None:
        """Install the witness-pass skip flags (idempotent)."""
        if self.refine_dominated is None:
            flags = _np.zeros(self.n, dtype=bool)
            dom = _np.asarray(dominated, dtype=_np.int64)
            if dom.size:
                flags[dom] = True
            self.refine_dominated = flags

    def skip_keys(self):
        """``(stride, all_keys, dominated_keys)`` for the skip tallies.

        Each CSR entry ``(v, w)`` becomes ``v·stride + deg(w)``, in the
        degree-ordered rows' order — hence ascending — over all entries
        and over the entries whose ``w`` the filter phase dominated.
        Built on the first instrumented scan only.
        """
        if self._skip_keys is None:
            index = self.edge_index
            stride = int(self.deg.max(initial=0)) + 1
            keys = index.row * stride + self.deg[index.by_degree]
            dominated = keys[~self.filter_ok[index.by_degree]]
            self._skip_keys = (stride, keys, dominated)
        return self._skip_keys

    def refine_rows(self):
        """``(indptr, indices)`` of the CSR restricted to refine-dominated
        columns — the witness pass's extra skips.  Needs the flags."""
        if self._refine_rows is None:
            keep = self.refine_dominated[self.indices]
            counts = _np.bincount(
                self.edge_index.row[keep], minlength=self.n
            )
            indptr = _np.zeros(self.n + 1, dtype=_np.int64)
            _np.cumsum(counts, out=indptr[1:])
            self._refine_rows = (indptr, self.indices[keep])
        return self._refine_rows


def _smallest_settling(
    ctx: BlockRefineContext, us, witness: bool, stats: SkylineCounters
):
    """Per ``u`` of the block ``us``: the smallest ``w`` that settles
    ``u`` under the pass's skip predicate, ``-1`` where none does."""
    indptr, indices, deg, n = ctx.indptr, ctx.indices, ctx.deg, ctx.n
    found = _np.full(len(us), -1, dtype=_np.int64)
    pivot = ctx.pivot[us]
    row_lens = _np.where(pivot >= 0, deg[pivot], 0)
    w = gather_rows(indices, indptr[pivot], row_lens)
    if not w.size:
        return found
    entry = _np.repeat(_np.arange(len(us), dtype=_np.int64), row_lens)
    u = us[entry]
    deg_us = deg[us]
    mask = (w != u) & (deg[w] >= deg_us[entry]) & ctx.filter_ok[w]
    if witness:
        mask &= ~((w < u) & ctx.refine_dominated[w])
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
    hit = ctx.edge_index.has_keys(keys)
    accept = _np.logical_and.reduceat(hit, _np.cumsum(lens) - lens)
    settle = accept & ((deg[pair_w] > lens) | (pair_w < us[pair_u]))
    settled_u, settled_w = pair_u[settle], pair_w[settle]
    # Pairs run u-major, w ascending: each u's first settling pair
    # holds its smallest settling w.
    first = _np.ones(settled_u.size, dtype=bool)
    first[1:] = settled_u[1:] != settled_u[:-1]
    found[settled_u[first]] = settled_w[first]
    return found


def _tally_skips(
    ctx: BlockRefineContext, us, witness: bool, stats: SkylineCounters
) -> None:
    """Add the ``degree_skips`` / ``dominated_skips`` a scan of the
    whole 2-hop neighborhood of every ``u`` in ``us`` would tally."""
    stride, keys, dominated_keys = ctx.skip_keys()
    deg = ctx.deg
    lens = deg[us]
    v = gather_rows(ctx.indices, ctx.indptr[us], lens).astype(_np.int64)
    row = v * stride
    bound = row + _np.repeat(lens, lens)
    # Row v's entries with deg(w) < deg(u) (u itself never is one).
    stats.degree_skips += int(
        (_np.searchsorted(keys, bound) - ctx.indptr[v]).sum()
    )
    # Filter-dominated entries with deg(w) >= deg(u) (u is a candidate).
    stats.dominated_skips += int(
        (
            _np.searchsorted(dominated_keys, row + stride)
            - _np.searchsorted(dominated_keys, bound)
        ).sum()
    )
    if witness:
        # Plus the refine-dominated w < u with deg(w) >= deg(u).
        r_indptr, r_indices = ctx.refine_rows()
        r_lens = r_indptr[v + 1] - r_indptr[v]
        w = gather_rows(r_indices, r_indptr[v], r_lens)
        u = _np.repeat(_np.repeat(us, lens), r_lens)
        stats.dominated_skips += int(
            _np.count_nonzero((w < u) & (deg[w] >= deg[u]))
        )


def _scan(
    ctx: BlockRefineContext, us, witness: bool, stats: SkylineCounters
):
    """:func:`_smallest_settling` over ``us`` in budget-sized blocks."""
    found = _np.empty(len(us), dtype=_np.int64)
    for lo, hi in budget_slices(ctx.cost[us], ctx.entry_budget):
        check_deadline()
        block = us[lo:hi]
        found[lo:hi] = _smallest_settling(ctx, block, witness, stats)
        if stats is not NULL_COUNTERS:
            _tally_skips(ctx, block, witness, stats)
    return found


def block_status_chunk(
    ctx: BlockRefineContext, lo: int, hi: int, stats: SkylineCounters
) -> list[int]:
    """Status pass over candidates ``ctx.cand[lo:hi]``, in blocks.

    Returns the dominated candidate IDs, ascending (chunks of the
    ascending candidate list scan in order, so this falls out free).
    """
    cand = ctx.cand[lo:hi]
    stats.vertices_examined += len(cand)
    dominated = cand[_scan(ctx, cand, False, stats) >= 0].tolist()
    stats.dominations_found += len(dominated)
    return dominated


def block_witness_chunk(
    ctx: BlockRefineContext,
    dominated_slice: Sequence[int],
    stats: SkylineCounters,
) -> list[tuple[int, int]]:
    """Witness pass over one slice of the dominated-candidate list.

    Precondition: :meth:`BlockRefineContext.ensure_refine_dominated`
    ran with the *full* status-pass output.
    """
    us = _np.asarray(dominated_slice, dtype=_np.int64)
    witnesses = _scan(ctx, us, True, stats)
    missing = _np.flatnonzero(witnesses < 0)
    if missing.size:
        raise RuntimeError(
            f"refine witness for vertex {int(us[missing[0]])} vanished "
            "between passes; this indicates a bug in the status pass"
        )
    return list(zip(us.tolist(), witnesses.tolist()))


def block_refine_pass(
    index: EdgeIndex,
    candidates: Sequence[int],
    dominator: list[int],
    stats: SkylineCounters,
    *,
    entry_budget: int = BLOCK_ENTRY_BUDGET,
) -> list[int]:
    """Run the block refine in place over ``dominator``.

    The counterpart of
    :func:`~repro.core.filter_refine.bloom_refine_pass` for the block
    kernel: takes the graph's :func:`~repro.graph.csr.edge_index` and
    the filter phase's output, writes each dominated candidate's
    sequential witness and returns those candidates, ascending.
    Instrumented runs also record ``block_rescans`` (the candidates
    the witness pass rescanned) in ``stats.extra``.
    """
    ctx = BlockRefineContext(
        index, candidates, dominator, entry_budget=entry_budget
    )
    dominated = block_status_chunk(ctx, 0, len(candidates), stats)
    ctx.ensure_refine_dominated(dominated)
    for u, w in block_witness_chunk(ctx, dominated, stats):
        dominator[u] = w
    if stats is not NULL_COUNTERS:
        stats.extra["block_rescans"] = len(dominated)
    return dominated


def filter_refine_block_sky(
    graph: Graph,
    *,
    counters: Optional[SkylineCounters] = None,
    entry_budget: int = BLOCK_ENTRY_BUDGET,
) -> SkylineResult:
    """Compute the neighborhood skyline with the block refine kernel.

    Same filter phase, same result as
    :func:`~repro.core.filter_refine.filter_refine_sky` — bit for bit —
    with the refine phase evaluated in vectorized blocks.  Both phases
    share one :func:`~repro.graph.csr.edge_index`, built here and
    dropped on return.  ``counters.extra["refine_path"]`` records
    ``"block"``.
    """
    if entry_budget <= 0:
        raise ParameterError(
            f"entry_budget must be positive, got {entry_budget}"
        )
    stats = counters if counters is not None else NULL_COUNTERS
    index = edge_index(graph)
    candidates, dominator = filter_phase(
        graph, counters=counters, index=index
    )
    dominated = block_refine_pass(
        index, candidates, dominator, stats, entry_budget=entry_budget
    )
    if counters is not None:
        counters.extra["refine_path"] = "block"

    # The skyline: the candidates the refine left undominated.
    refined = set(dominated)
    return SkylineResult(
        skyline=tuple(u for u in candidates if u not in refined),
        dominator=tuple(dominator),
        candidates=tuple(candidates),
        algorithm="FilterRefineSkyBlock",
        counters=counters,
    )
