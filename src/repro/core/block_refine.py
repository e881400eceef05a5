"""``FilterRefineSkyBlock`` — the block-vectorized refine kernel.

The bloom and bitset refine kernels walk the 2-hop neighborhood of each
candidate in Python, one pair at a time.  This module evaluates the
same decisions in **blocks** over the CSR ndarrays, and scans far less
than the full 2-hop neighborhood to do it.

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
domination, core-number pretest) runs as boolean masks over the row,
and every surviving pair ``(u, w)`` is tested exactly with one
vectorized ``searchsorted`` of the keys ``w·n + x``, ``x ∈ N(u)``, in
the sorted CSR edge keys ``row·n + col``.  A pivot row lists each
vertex once, so no pair is tested twice.

Output equivalence reuses the two-pass decomposition proved in
:mod:`repro.parallel.worker` verbatim:

1. **Status pass** — which candidates are dominated, testing against
   the frozen filter-phase dominator state only.  Settlement per pair
   is the scalar rule, evaluated as masks: strict domination
   (``deg(w) > deg(u)``) or mutual inclusion lost on the Def. 2 ID
   tie-break (``w < u``).
2. **Witness pass** — for each dominated candidate, the exact entry
   the sequential scan would have written: the *first* settling ``w``
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

Core-number pretest
-------------------
``N(u) ⊆ N(w)`` implies ``core(w) ≥ core(u)`` (see
:mod:`repro.graph.cores`), so pairs failing it are rejected before the
subset test.  The pretest never changes the accept set — it is pure
work avoidance — and its per-entry reject tally surfaces as
``counters.extra["core_pretest_rejects"]``.

Counter semantics
-----------------
``pair_tests`` counts the pivot-row pairs that reach the subset test
and ``core_pretest_rejects`` the pivot-row entries the pretest drops,
in both passes.  ``degree_skips`` and ``dominated_skips`` keep their
full 2-hop meaning — every ``(v, w)`` visit a status or witness scan of
the whole 2-hop neighborhood would skip — but are computed without that
scan, from per-row degree-sorted prefix counts (one ``searchsorted``
per visited row); uninstrumented runs skip that arithmetic.
``vertices_examined`` and ``dominations_found`` match the parallel
bloom/bitset totals exactly; the skip tallies never undercount the
sequential scan's.  ``bloom_*`` and ``nbr_checks`` stay zero.  Totals
are deterministic for any chunking.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.counters import NULL_COUNTERS, SkylineCounters
from repro.core.filter_phase import filter_phase
from repro.core.result import SkylineResult
from repro.errors import ParameterError
from repro.graph.adjacency import Graph
from repro.graph.cores import core_decomposition

try:  # pragma: no cover - exercised via HAVE_NUMPY gating tests
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

#: ``True`` when numpy is importable and the block kernel can run.
HAVE_NUMPY = _np is not None

__all__ = [
    "BLOCK_ENTRY_BUDGET",
    "BLOCK_KERNEL_MIN_CANDIDATES",
    "BlockRefineContext",
    "HAVE_NUMPY",
    "block_refine_pass",
    "block_status_chunk",
    "block_witness_chunk",
    "choose_refine_kernel",
    "filter_refine_block_sky",
]

#: Subset-test lookups (``Σ deg(u) · deg(p(u))``) per block — bounds the
#: flat scratch arrays to a few tens of MB however large the graph is.
BLOCK_ENTRY_BUDGET = 1 << 22

#: Below this many candidates the scalar bitset kernel (packing is
#: microseconds, scans early-exit) beats the block kernel's fixed
#: overhead (core peel, pivot and edge-key arrays, ~1 ms at n = 400);
#: ``choose_refine_kernel`` routes there.  Fitted on both benchmark
#: graph families (refine-only times in ``docs/refine-kernels.md``):
#: on sparse copying-model graphs bitset wins up to |C| ≈ 300, on R-MAT
#: block wins from |C| ≈ 160.  Kept below the bitset kernel's
#: ``DENSITY_FALLBACK_MIN_CANDIDATES``, so an ``"auto"`` bitset route
#: never meets the density fallback.
BLOCK_KERNEL_MIN_CANDIDATES = 256


def choose_refine_kernel(
    num_candidates: int,
    num_vertices: int,
    *,
    word_budget: int,
) -> str:
    """The three-way ``"auto"`` cutover: bloom / bitset / block.

    * no numpy → ``"bloom"`` (the only kernel that runs everywhere);
    * small candidate sets whose packed matrix fits ``word_budget`` →
      ``"bitset"`` (scalar early-exit scans win under the block
      kernel's fixed ndarray overhead);
    * everything else → ``"block"`` (the vectorized pivot kernel —
      it needs no bit matrix, so neither the word budget nor the
      candidate-density fallback applies to it).
    """
    if not HAVE_NUMPY:
        return "bloom"
    from repro.graph.bitmatrix import matrix_words

    if (
        num_candidates < BLOCK_KERNEL_MIN_CANDIDATES
        and matrix_words(num_candidates, num_vertices) <= word_budget
    ):
        return "bitset"
    return "block"


def _graph_csr(graph: Graph):
    """``(indptr, indices)`` of ``graph`` as numpy arrays."""
    csr_arrays = getattr(graph, "csr_arrays", None)
    if csr_arrays is not None:
        indptr, indices = csr_arrays()
    else:
        indptr, indices = graph.to_csr()
    return _np.asarray(indptr), _np.asarray(indices)


def _ragged_gather(indices, starts, lens):
    """Concatenate ``indices[starts[i] : starts[i] + lens[i]]`` rows."""
    total = int(lens.sum())
    if not total:
        return _np.empty(0, dtype=indices.dtype)
    offsets = _np.arange(total, dtype=_np.int64) - _np.repeat(
        _np.cumsum(lens) - lens, lens
    )
    return indices[_np.repeat(starts, lens) + offsets]


def _pivots(indptr, indices, deg, n: int):
    """Each vertex's minimum-degree neighbor (ties to the smaller ID);
    ``-1`` for isolated vertices."""
    pivot = _np.full(n, -1, dtype=_np.int64)
    rows = _np.flatnonzero(deg)
    if rows.size:
        # Rows are contiguous, so reducing from each non-empty row's
        # start to the next one's covers exactly that row.
        key = deg[indices] * n + indices
        pivot[rows] = _np.minimum.reduceat(key, indptr[rows]) % n
    return pivot


class BlockRefineContext:
    """Shared ndarray state for block refine scans.

    Built once per pass (or per worker process) from the graph, the
    frozen filter-phase output and the core numbers; the chunk scans
    only read it (apart from the lazily installed witness flags and
    counter keys, which are themselves frozen once set).
    """

    __slots__ = (
        "n",
        "indptr",
        "indices",
        "deg",
        "filter_ok",
        "core",
        "cand",
        "pivot",
        "cost",
        "edge_keys",
        "entry_budget",
        "refine_dominated",
        "_skip_keys",
        "_refine_rows",
    )

    def __init__(
        self,
        graph: Graph,
        candidates: Sequence[int],
        dominator: Sequence[int],
        *,
        cores=None,
        entry_budget: int = BLOCK_ENTRY_BUDGET,
    ):
        if not HAVE_NUMPY:
            raise ParameterError(
                "the block refine kernel requires numpy; gate on "
                "repro.core.block_refine.HAVE_NUMPY"
            )
        indptr, indices = _graph_csr(graph)
        n = self.n = graph.num_vertices
        self.indptr = indptr.astype(_np.int64, copy=False)
        self.indices = indices
        self.deg = self.indptr[1:] - self.indptr[:-1]
        dom = _np.asarray(dominator, dtype=_np.int64)
        self.filter_ok = dom == _np.arange(n, dtype=_np.int64)
        if cores is None:
            cores = core_decomposition(graph).core
        self.core = _np.asarray(cores, dtype=_np.int64)
        self.cand = _np.asarray(candidates, dtype=_np.int64)
        self.pivot = _pivots(self.indptr, indices, self.deg, n)
        # Subset-test lookups per candidate, the quantity block sizing
        # budgets (isolated vertices cost nothing: deg(u) = 0).
        self.cost = self.deg * self.deg[self.pivot]
        # Sorted rows make ``row·n + col`` globally ascending.
        self.edge_keys = (
            _np.repeat(_np.arange(n, dtype=_np.int64), self.deg) * n + indices
        )
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

        Each CSR entry ``(v, w)`` becomes ``v·stride + deg(w)``, sorted —
        i.e. every row sorted by neighbor degree — over all entries and
        over the entries whose ``w`` the filter phase dominated.  Built
        on the first instrumented scan only.
        """
        if self._skip_keys is None:
            stride = int(self.deg.max(initial=0)) + 1
            keys = self.edge_keys // self.n * stride + self.deg[self.indices]
            dominated = keys[~self.filter_ok[self.indices]]
            keys.sort()
            dominated.sort()
            self._skip_keys = (stride, keys, dominated)
        return self._skip_keys

    def refine_rows(self):
        """``(indptr, indices)`` of the CSR restricted to refine-dominated
        columns — the witness pass's extra skips.  Needs the flags."""
        if self._refine_rows is None:
            keep = self.refine_dominated[self.indices]
            counts = _np.bincount(
                self.edge_keys[keep] // self.n, minlength=self.n
            )
            indptr = _np.zeros(self.n + 1, dtype=_np.int64)
            _np.cumsum(counts, out=indptr[1:])
            self._refine_rows = (indptr, self.indices[keep])
        return self._refine_rows


def _block_bounds(cost: "object", budget: int) -> list[tuple[int, int]]:
    """Split ``range(len(cost))`` greedily so each block's Σcost ≤ budget
    (always at least one item per block)."""
    bounds: list[tuple[int, int]] = []
    if not len(cost):
        return bounds
    cum = _np.cumsum(cost)
    start = 0
    while start < len(cost):
        limit = (cum[start - 1] if start else 0) + budget
        end = int(_np.searchsorted(cum, limit, side="right"))
        end = max(end, start + 1)
        bounds.append((start, end))
        start = end
    return bounds


def _smallest_settling(
    ctx: BlockRefineContext, us, witness: bool, stats: SkylineCounters
):
    """Per ``u`` of the block ``us``: the smallest ``w`` that settles
    ``u`` under the pass's skip predicate, ``-1`` where none does."""
    indptr, indices, deg, n = ctx.indptr, ctx.indices, ctx.deg, ctx.n
    found = _np.full(len(us), -1, dtype=_np.int64)
    pivot = ctx.pivot[us]
    row_lens = _np.where(pivot >= 0, deg[pivot], 0)
    w = _ragged_gather(indices, indptr[pivot], row_lens)
    if not w.size:
        return found
    entry = _np.repeat(_np.arange(len(us), dtype=_np.int64), row_lens)
    u = us[entry]
    deg_us = deg[us]
    mask = (w != u) & (deg[w] >= deg_us[entry]) & ctx.filter_ok[w]
    if witness:
        mask &= ~((w < u) & ctx.refine_dominated[w])
    core_ok = ctx.core[w] >= ctx.core[u]
    if stats is not NULL_COUNTERS:
        stats.extra["core_pretest_rejects"] = stats.extra.get(
            "core_pretest_rejects", 0
        ) + int(_np.count_nonzero(mask & ~core_ok))
    mask &= core_ok
    pair_u = entry[mask]
    pair_w = w[mask].astype(_np.int64)
    stats.pair_tests += int(pair_u.size)
    if not pair_u.size:
        return found

    # N(u) ⊆ N(w): every key w·n + x, x ∈ N(u), is a CSR edge key.
    lens = deg_us[pair_u]
    keys = _np.repeat(pair_w * n, lens) + _ragged_gather(
        indices, indptr[us[pair_u]], lens
    )
    edge_keys = ctx.edge_keys
    pos = _np.searchsorted(edge_keys, keys)
    hit = edge_keys[_np.minimum(pos, len(edge_keys) - 1)] == keys
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
    v = _ragged_gather(ctx.indices, ctx.indptr[us], lens).astype(_np.int64)
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
        w = _ragged_gather(r_indices, r_indptr[v], r_lens)
        u = _np.repeat(_np.repeat(us, lens), r_lens)
        stats.dominated_skips += int(
            _np.count_nonzero((w < u) & (deg[w] >= deg[u]))
        )


def _scan(
    ctx: BlockRefineContext, us, witness: bool, stats: SkylineCounters
):
    """:func:`_smallest_settling` over ``us`` in budget-sized blocks."""
    found = _np.empty(len(us), dtype=_np.int64)
    for lo, hi in _block_bounds(ctx.cost[us], ctx.entry_budget):
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
    graph: Graph,
    candidates: Sequence[int],
    dominator: list[int],
    stats: SkylineCounters,
    *,
    entry_budget: int = BLOCK_ENTRY_BUDGET,
) -> None:
    """Run the block refine in place over ``dominator``.

    The counterpart of
    :func:`~repro.core.filter_refine.bloom_refine_pass` for the block
    kernel: takes the filter phase's output and writes each dominated
    candidate's sequential witness.  Instrumented runs also record
    ``core_pretest_rejects`` and ``block_rescans`` (the candidates the
    witness pass rescanned) in ``stats.extra``.
    """
    ctx = BlockRefineContext(
        graph, candidates, dominator, entry_budget=entry_budget
    )
    dominated = block_status_chunk(ctx, 0, len(candidates), stats)
    ctx.ensure_refine_dominated(dominated)
    for u, w in block_witness_chunk(ctx, dominated, stats):
        dominator[u] = w
    if stats is not NULL_COUNTERS:
        stats.extra.setdefault("core_pretest_rejects", 0)
        stats.extra["block_rescans"] = len(dominated)


def filter_refine_block_sky(
    graph: Graph,
    *,
    counters: Optional[SkylineCounters] = None,
    entry_budget: int = BLOCK_ENTRY_BUDGET,
    bloom_bits: Optional[int] = None,
    bits_per_element: int = 8,
    seed: int = 0,
) -> SkylineResult:
    """Compute the neighborhood skyline with the block refine kernel.

    Same filter phase, same result as
    :func:`~repro.core.filter_refine.filter_refine_sky` — bit for bit —
    with the refine phase evaluated in vectorized blocks.  Without
    numpy the refine falls back to the bloom pass (``bloom_bits`` /
    ``bits_per_element`` / ``seed`` size it; they are ignored when the
    block kernel runs) and ``counters.extra`` records
    ``refine_path == "bloom-fallback"`` with reason ``"numpy-missing"``.
    """
    if entry_budget <= 0:
        raise ParameterError(
            f"entry_budget must be positive, got {entry_budget}"
        )
    stats = counters if counters is not None else NULL_COUNTERS
    n = graph.num_vertices
    candidates, dominator = filter_phase(graph, counters=counters)

    if not HAVE_NUMPY:
        from repro.bloom.vertex_filters import VertexBloomIndex
        from repro.core.filter_refine import bloom_refine_pass

        blooms = VertexBloomIndex(
            graph,
            candidates,
            bits=bloom_bits,
            seed=seed,
            bits_per_element=bits_per_element,
        )
        bloom_refine_pass(graph, candidates, dominator, blooms, stats)
        if counters is not None:
            counters.extra["refine_path"] = "bloom-fallback"
            counters.extra["bitset_fallback_reason"] = "numpy-missing"
        algorithm = "FilterRefineSkyBlock(bloom-fallback)"
    else:
        block_refine_pass(
            graph, candidates, dominator, stats, entry_budget=entry_budget
        )
        if counters is not None:
            counters.extra["refine_path"] = "block"
        algorithm = "FilterRefineSkyBlock"

    skyline = tuple(u for u in range(n) if dominator[u] == u)
    return SkylineResult(
        skyline=skyline,
        dominator=tuple(dominator),
        candidates=tuple(candidates),
        algorithm=algorithm,
        counters=counters,
    )
