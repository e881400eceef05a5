"""Per-candidate refine scans for the parallel engine.

The sequential refine loop of Algorithm 3 looks order-dependent — it
skips potential dominators ``w`` with ``O(w) ≠ w``, and refine updates
``O(*)`` as it goes — but the dependence is shallow, and this module
exploits it to split the phase into two embarrassingly parallel passes
that reproduce the sequential output *bit for bit*:

1. **Status pass** (:func:`scan_status`): is candidate ``u`` dominated
   from its 2-hop neighborhood?  The scan skips only *filter-phase*
   dominations, which are frozen before refine starts.  Skipping a
   refine-dominated ``w`` is a work-avoidance heuristic, never a
   correctness requirement — a pair that passes the checks certifies a
   genuine domination whatever ``w``'s own status — and conversely the
   pass tests a superset of the pairs the sequential scan tests, so the
   dominated *set* it computes equals the sequential one exactly.
2. **Witness pass** (:func:`scan_witness`): for each dominated
   candidate, recover the dominator entry the sequential scan would
   have written.  When the sequential loop reaches ``u``, the refine
   state it sees is the *final* status of every candidate below ``u``
   (entries are written at most once, and candidates are processed in
   ascending ID order), so the sequential witness is a pure function of
   the status-pass output: rescan with the skip predicate
   "``w`` filter-dominated, or ``w < u`` and refine-dominated" and
   return the first dominator that passes Def. 2's tie-break.

Both passes are pure functions of a :class:`RefineState`, which workers
rebuild once per process from a pickle-cheap CSR payload
(:meth:`~repro.graph.adjacency.Graph.to_csr`) and then reuse for every
chunk they are handed — including the per-worker
:class:`~repro.bloom.vertex_filters.VertexBloomIndex`.

Both passes also come in a packed-bitset flavor
(:func:`scan_status_bitset` / :func:`scan_witness_bitset`): the same
two-pass decomposition with the per-pair test replaced by the
word-parallel AND-NOT of :mod:`repro.core.bitset_refine`.  The engine
packs the candidate matrix **once in the parent**, ships its raw words
inside the payload, and workers rebuild zero-copy *views*
(:meth:`~repro.graph.bitmatrix.CandidateBitMatrix.from_payload`) —
rows are never re-packed per process.  Equivalence transfers verbatim:
the decomposition argument above never looks inside the pair test, only
at which pairs are skipped, and the bitset test accepts exactly the
pairs the exact bloom ladder accepts.

And in a block-vectorized flavor (``refine="block"``): the chunk
runners hand whole candidate ranges to
:mod:`repro.core.block_refine`'s batch kernels instead of scanning one
vertex at a time.  The same two-pass decomposition applies unchanged —
the block kernel implements exactly the status/witness predicates
above, in ndarray blocks over each candidate's pivot row (every
possible dominator lies in it) — so chunked totals and outputs match the
scalar kernels bit for bit.  The engine computes the k-core numbers
once in the parent and ships them like any other call-scoped segment;
workers never re-peel the graph.
"""

from __future__ import annotations

from array import array
from typing import NamedTuple, Optional, Sequence

from repro.bloom.vertex_filters import VertexBloomIndex
from repro.core.bitset_refine import BitsetScanContext
from repro.core.block_refine import (
    BlockRefineContext,
    block_status_chunk,
    block_witness_chunk,
)
from repro.core.counters import SkylineCounters
from repro.graph.adjacency import CSRGraphView, Graph
from repro.graph.bitmatrix import CandidateBitMatrix
from repro.parallel.shm import SegmentRef, attach_view, release_attachments

__all__ = [
    "RefineSpec",
    "RefineState",
    "build_payload",
    "build_state",
    "init_worker",
    "run_status_chunk",
    "run_witness_chunk",
    "scan_status",
    "scan_status_bitset",
    "scan_witness",
    "scan_witness_bitset",
    "validate_status_chunk",
    "validate_witness_chunk",
]


class RefineSpec(NamedTuple):
    """Per-call refine parameters, shipped inside each shm-plane task.

    On the shared-memory plane the pool initializer installs only the
    *graph* (attached CSR views, one per process lifetime); everything
    call-scoped — candidates, filter dominators, kernel knobs, the
    optional bit matrix — rides in this spec as :class:`~repro.parallel.
    shm.SegmentRef` handles plus scalars, a few hundred bytes per task.
    Workers cache the state they build from a spec under ``key`` (the
    engine derives it from the segment names and kernel knobs), so a
    warm session repeating a call re-uses the state outright and a new
    call evicts exactly the previous call's attachments.
    """

    epoch: int
    key: tuple
    refine: str
    bits: int
    seed: int
    candidates: SegmentRef
    dominator: SegmentRef
    matrix: Optional[SegmentRef]
    #: Parent-computed k-core numbers (block kernel only; else None).
    cores: Optional[SegmentRef] = None


class RefineState:
    """Everything a refine scan needs, built once per worker process.

    ``refine`` selects the kernel: ``"bloom"`` states carry a
    :class:`VertexBloomIndex`, ``"bitset"`` states a
    :class:`~repro.core.bitset_refine.BitsetScanContext`, ``"block"``
    states a :class:`~repro.core.block_refine.BlockRefineContext` (the
    non-bloom modes never build a filter index).
    """

    __slots__ = (
        "graph",
        "candidates",
        "dominator",
        "blooms",
        "ctx",
        "refine",
        "refine_dominated",
    )

    def __init__(
        self,
        graph: Graph,
        candidates: Sequence[int],
        dominator: Sequence[int],
        blooms: Optional[VertexBloomIndex],
        ctx: Optional[BitsetScanContext] = None,
        refine: str = "bloom",
    ):
        self.graph = graph
        self.candidates = candidates
        #: Filter-phase dominator array, frozen for the whole refine.
        self.dominator = dominator
        self.blooms = blooms
        self.ctx = ctx
        self.refine = refine
        #: Per-vertex flags for the witness pass; set lazily from the
        #: status-pass output (``None`` until then).
        self.refine_dominated: Optional[bytearray] = None


def build_state(
    graph: Graph,
    candidates: Sequence[int],
    dominator: Sequence[int],
    *,
    bits: int,
    seed: int,
    refine: str = "bloom",
    matrix: Optional[CandidateBitMatrix] = None,
    cores: Optional[Sequence[int]] = None,
) -> RefineState:
    """A :class:`RefineState` over a live graph (in-process execution)."""
    if refine == "bitset":
        ctx = BitsetScanContext(
            graph, candidates, matrix, instrumented=False
        )
        return RefineState(
            graph, candidates, dominator, None, ctx, refine
        )
    if refine == "block":
        ctx = BlockRefineContext(graph, candidates, dominator, cores=cores)
        return RefineState(
            graph, candidates, dominator, None, ctx, refine
        )
    blooms = VertexBloomIndex(graph, candidates, bits=bits, seed=seed)
    return RefineState(graph, candidates, dominator, blooms)


def build_payload(
    graph: Graph,
    candidates: Sequence[int],
    dominator: Sequence[int],
    *,
    bits: int,
    seed: int,
    refine: str = "bloom",
    matrix: Optional[CandidateBitMatrix] = None,
    cores: Optional[Sequence[int]] = None,
) -> tuple:
    """The pickle-cheap snapshot shipped to every worker's initializer.

    In bitset mode the matrix rides along as its
    :meth:`~repro.graph.bitmatrix.CandidateBitMatrix.to_payload` raw
    bytes; workers rebuild read-only views, never re-pack.  In block
    mode the parent's k-core numbers ride the same way, so workers
    never re-peel the graph.
    """
    indptr, indices = graph.to_csr()
    return (
        indptr,
        indices,
        array("q", candidates),
        array("q", dominator),
        bits,
        seed,
        refine,
        matrix.to_payload() if matrix is not None else None,
        array("q", cores) if cores is not None else None,
    )


#: Worker-process state, populated by :func:`init_worker` (pickle plane).
_STATE: Optional[RefineState] = None

#: Worker-process graph view over attached CSR segments (shm plane).
_GRAPH: Optional[Graph] = None

#: Cache of the last :class:`RefineSpec` materialized in this process:
#: ``{"key", "state", "names"}`` where ``names`` are the call-scoped
#: segment attachments to release when a different spec arrives.
_CALL: Optional[dict] = None


def init_worker(payload: tuple) -> None:
    """Pool initializer for either data plane.

    Pickle plane: the classic 9-field payload of :func:`build_payload`
    — rebuild graph, candidates and the kernel once per process.  Shm
    plane: ``("shm", {"indptr": ref, "indices": ref})`` — attach the
    CSR segments and build a lazy :class:`~repro.graph.adjacency.
    CSRGraphView`; per-call state arrives later inside each task's
    :class:`RefineSpec`.  Pool rebuilds after a crash re-run this with
    the same initargs, so a fresh worker re-attaches automatically.
    """
    global _STATE, _GRAPH, _CALL
    # isinstance guard: the pickle payload leads with the indptr array,
    # and ndarray == str compares elementwise instead of returning False.
    if payload and isinstance(payload[0], str) and payload[0] == "shm":
        refs = payload[1]
        _GRAPH = CSRGraphView(
            attach_view(refs["indptr"]), attach_view(refs["indices"])
        )
        _STATE = None
        _CALL = None
        return
    (
        indptr,
        indices,
        candidates,
        dominator,
        bits,
        seed,
        refine,
        matrix_payload,
        cores,
    ) = payload
    graph = Graph.from_csr(indptr, indices)
    matrix = (
        CandidateBitMatrix.from_payload(matrix_payload)
        if matrix_payload is not None
        else None
    )
    _STATE = build_state(
        graph,
        candidates,
        dominator,
        bits=bits,
        seed=seed,
        refine=refine,
        matrix=matrix,
        cores=cores,
    )


def _call_state(spec: RefineSpec) -> RefineState:
    """The :class:`RefineState` for ``spec``, cached per process.

    A warm session re-issuing the same call (same ``spec.key``) hits
    the cache and pays nothing; a different call rebuilds the state
    from freshly attached segments and releases the previous call's
    attachments (the pinned graph segments are never in ``names``).
    """
    global _CALL
    cached = _CALL
    if cached is not None and cached["key"] == spec.key:
        return cached["state"]
    if _GRAPH is None:
        raise RuntimeError(
            "received a shared-memory task but this worker was not "
            "initialized with a shm payload"
        )
    candidates = attach_view(spec.candidates)
    dominator = attach_view(spec.dominator)
    names = {spec.candidates.name, spec.dominator.name}
    matrix = None
    if spec.matrix is not None:
        matrix = CandidateBitMatrix.from_buffer(
            _GRAPH.num_vertices, candidates, attach_view(spec.matrix)
        )
        names.add(spec.matrix.name)
    cores = None
    if spec.cores is not None:
        cores = attach_view(spec.cores)
        names.add(spec.cores.name)
    state = build_state(
        _GRAPH,
        candidates,
        dominator,
        bits=spec.bits,
        seed=spec.seed,
        refine=spec.refine,
        matrix=matrix,
        cores=cores,
    )
    _CALL = {"key": spec.key, "state": state, "names": names}
    if cached is not None:
        stale = cached["names"] - names
        cached = None  # drop the old state (and its views) first
        release_attachments(stale)
    return state


def _task_bounds(task: tuple) -> tuple[int, int]:
    """``(lo, hi)`` of a classic ``(lo, hi, ...)`` or spec-led task."""
    first = task[0]
    if isinstance(first, int):
        return first, task[1]
    return task[1], task[2]


def scan_status(state: RefineState, u: int, stats: SkylineCounters) -> bool:
    """``True`` iff candidate ``u`` has a 2-hop dominator (status pass).

    The check ladder per pair mirrors Algorithm 3 exactly — degree skip,
    dominated-dominator skip (filter-phase state only), whole-filter
    bloom subset test, per-neighbor ``BFcheck`` + exact ``NBRcheck`` —
    and stops at the first pair certifying a domination of ``u``
    (strict, or mutual losing the ID tie-break).
    """
    graph = state.graph
    dominator = state.dominator
    filter_word = state.blooms.filter_word
    bit_of = state.blooms.bit_masks
    neighbors = graph.neighbors
    degree = graph.degree
    has_edge = graph.has_edge

    stats.vertices_examined += 1
    deg_u = degree(u)
    bf_u = filter_word(u)
    nbrs_u = neighbors(u)
    for v in nbrs_u:
        for w in neighbors(v):
            if w == u:
                continue
            if degree(w) < deg_u:
                stats.degree_skips += 1
                continue
            if dominator[w] != w:
                stats.dominated_skips += 1
                continue
            stats.pair_tests += 1
            bf_w = filter_word(w)
            if bf_u & bf_w != bf_u:
                stats.bloom_subset_rejects += 1
                continue
            dominated_by_w = True
            for x in nbrs_u:
                if x == v:
                    continue
                stats.bloom_member_checks += 1
                if not (bf_w & bit_of[x]):
                    stats.bloom_member_rejects += 1
                    dominated_by_w = False
                    break
                stats.nbr_checks += 1
                if not has_edge(w, x):
                    stats.bloom_false_positives += 1
                    dominated_by_w = False
                    break
            if not dominated_by_w:
                continue
            # N(u) ⊆ N[w] certified.  Strict domination, or mutual
            # inclusion lost on the Def. 2 ID tie-break, settles u.
            if degree(w) > deg_u or u > w:
                stats.dominations_found += 1
                return True
            # Mutual inclusion won by u (u < w): u stays, keep scanning.
    return False


def scan_witness(state: RefineState, u: int, stats: SkylineCounters) -> int:
    """The dominator entry the sequential scan records for ``u``.

    Precondition: the status pass found ``u`` dominated, and
    ``state.refine_dominated`` holds its output.  Replays ``u``'s scan
    under the sequential skip predicate — ``w`` is skipped when it is
    filter-dominated, or refine-dominated with ``w < u`` — and returns
    the first ``w`` whose certified inclusion also settles ``u``
    (sequential writes ``O(u)`` at most once, so first hit = final
    entry).
    """
    graph = state.graph
    dominator = state.dominator
    refine_dominated = state.refine_dominated
    filter_word = state.blooms.filter_word
    bit_of = state.blooms.bit_masks
    neighbors = graph.neighbors
    degree = graph.degree
    has_edge = graph.has_edge

    deg_u = degree(u)
    bf_u = filter_word(u)
    nbrs_u = neighbors(u)
    for v in nbrs_u:
        for w in neighbors(v):
            if w == u:
                continue
            if degree(w) < deg_u:
                stats.degree_skips += 1
                continue
            if dominator[w] != w or (w < u and refine_dominated[w]):
                stats.dominated_skips += 1
                continue
            stats.pair_tests += 1
            bf_w = filter_word(w)
            if bf_u & bf_w != bf_u:
                stats.bloom_subset_rejects += 1
                continue
            dominated_by_w = True
            for x in nbrs_u:
                if x == v:
                    continue
                stats.bloom_member_checks += 1
                if not (bf_w & bit_of[x]):
                    stats.bloom_member_rejects += 1
                    dominated_by_w = False
                    break
                stats.nbr_checks += 1
                if not has_edge(w, x):
                    stats.bloom_false_positives += 1
                    dominated_by_w = False
                    break
            if not dominated_by_w:
                continue
            if degree(w) > deg_u or u > w:
                return w
    raise RuntimeError(
        f"refine witness for vertex {u} vanished between passes; "
        "this indicates a bug in the status pass"
    )


def scan_status_bitset(
    state: RefineState, u: int, stats: SkylineCounters
) -> bool:
    """Bitset-kernel status pass: ``True`` iff ``u`` has a 2-hop dominator.

    Same skip predicate as :func:`scan_status` (frozen filter-phase
    dominations only), with the pair test replaced by the packed
    AND-NOT and its stamp-cached verdicts.  Counter stream: the ladder
    counters cover only the candidate members of each visited neighbor
    list (the kernel never iterates non-candidates); ``bloom_*`` and
    ``nbr_checks`` stay zero.
    """
    ctx = state.ctx
    dominator = state.dominator
    deg = ctx.deg
    cand_groups = ctx.cand_groups
    seen = ctx.seen

    stats.vertices_examined += 1
    stamp = ctx.next_stamp()
    deg_u = deg[u]
    row_u = ctx.row_int[u]
    for v in state.graph.neighbors(u):
        for w, deg_w, comp_w in cand_groups[v]:
            if w == u:
                continue
            if deg_w < deg_u:
                stats.degree_skips += 1
                continue
            if dominator[w] != w:
                stats.dominated_skips += 1
                continue
            stats.pair_tests += 1
            if seen[w] == stamp:
                # Cached verdict: a failing w stays failing, a passing
                # w that didn't settle u (mutual won by u) never will.
                continue
            seen[w] = stamp
            if row_u & comp_w:
                continue
            if deg_w > deg_u or u > w:
                stats.dominations_found += 1
                return True
            # Mutual inclusion won by u (u < w): u stays, keep scanning.
    return False


def scan_witness_bitset(
    state: RefineState, u: int, stats: SkylineCounters
) -> int:
    """Bitset-kernel witness pass: the sequential dominator entry for ``u``.

    Same skip predicate as :func:`scan_witness` — both inputs to it
    (filter dominations and the status-pass flags) are frozen, so the
    stamp cache remains sound here too.
    """
    ctx = state.ctx
    dominator = state.dominator
    refine_dominated = state.refine_dominated
    deg = ctx.deg
    cand_groups = ctx.cand_groups
    seen = ctx.seen

    stamp = ctx.next_stamp()
    deg_u = deg[u]
    row_u = ctx.row_int[u]
    for v in state.graph.neighbors(u):
        for w, deg_w, comp_w in cand_groups[v]:
            if w == u:
                continue
            if deg_w < deg_u:
                stats.degree_skips += 1
                continue
            if dominator[w] != w or (w < u and refine_dominated[w]):
                stats.dominated_skips += 1
                continue
            stats.pair_tests += 1
            if seen[w] == stamp:
                continue
            seen[w] = stamp
            if row_u & comp_w:
                continue
            if deg_w > deg_u or u > w:
                return w
    raise RuntimeError(
        f"refine witness for vertex {u} vanished between passes; "
        "this indicates a bug in the status pass"
    )


def _ensure_flags(state: RefineState, dominated: Sequence[int]) -> None:
    if state.refine_dominated is None:
        flags = bytearray(state.graph.num_vertices)
        for u in dominated:
            flags[u] = 1
        state.refine_dominated = flags


def run_status_chunk(task: tuple, state: Optional[RefineState] = None):
    """Status pass over one candidate chunk.

    ``task`` is ``(lo, hi)`` on the pickle plane or
    ``(spec, lo, hi)`` on the shm plane.  Returns
    ``(dominated_ids, counter_dict)``.  ``state`` defaults to the
    worker-process state (installed by :func:`init_worker` or resolved
    from the spec); the engine passes its own when running in-process
    or as the sequential fallback.
    """
    if state is None:
        first = task[0]
        state = _STATE if isinstance(first, int) else _call_state(first)
    lo, hi = _task_bounds(task)
    stats = SkylineCounters()
    if state.refine == "block":
        return block_status_chunk(state.ctx, lo, hi, stats), _chunk_stats(
            stats
        )
    scan = scan_status_bitset if state.refine == "bitset" else scan_status
    dominated = [
        u for u in state.candidates[lo:hi] if scan(state, u, stats)
    ]
    return dominated, _chunk_stats(stats)


def _chunk_stats(stats: SkylineCounters) -> dict:
    """A chunk's counter snapshot, extras folded in as plain ints.

    ``as_dict`` excludes ``extra`` by design; the block kernel's
    instrumentation (``core_pretest_rejects``) lives there, and the
    supervisor's merge routes unknown keys back into ``extra`` — so
    folding the int-valued extras into the flat dict round-trips them.
    """
    out = stats.as_dict()
    for key, value in stats.extra.items():
        if isinstance(value, int) and not isinstance(value, bool):
            out[key] = value
    return out


def _valid_stats(stats) -> bool:
    return isinstance(stats, dict) and all(
        isinstance(k, str)
        and isinstance(v, int)
        and not isinstance(v, bool)
        for k, v in stats.items()
    )


def _valid_vertex(u) -> bool:
    return isinstance(u, int) and not isinstance(u, bool) and u >= 0


def validate_status_chunk(task: tuple, result) -> bool:
    """Schema check for a :func:`run_status_chunk` payload.

    The supervisor rejects (and recomputes) anything that is not a
    ``(ascending vertex-id list, counter dict)`` pair sized within the
    chunk — a worker returning garbage must never poison the merge.
    """
    lo, hi = _task_bounds(task)
    if not (isinstance(result, tuple) and len(result) == 2):
        return False
    part, stats = result
    if not isinstance(part, list) or len(part) > hi - lo:
        return False
    if not all(_valid_vertex(u) for u in part):
        return False
    if any(part[j] >= part[j + 1] for j in range(len(part) - 1)):
        return False
    return _valid_stats(stats)


def validate_witness_chunk(task: tuple, result) -> bool:
    """Schema check for a :func:`run_witness_chunk` payload.

    Exactly one ``(dominated, witness)`` pair per chunk entry — the
    witness pass never drops or invents candidates.
    """
    lo, hi = _task_bounds(task)
    if not (isinstance(result, tuple) and len(result) == 2):
        return False
    part, stats = result
    if not isinstance(part, list) or len(part) != hi - lo:
        return False
    for pair in part:
        if not (isinstance(pair, tuple) and len(pair) == 2):
            return False
        u, w = pair
        if not (_valid_vertex(u) and _valid_vertex(w)) or u == w:
            return False
    return _valid_stats(stats)


def run_witness_chunk(task: tuple, state: Optional[RefineState] = None):
    """Witness pass over one chunk of the dominated-candidate list.

    ``task`` is ``(lo, hi, dominated)`` on the pickle plane —
    ``dominated`` is the full ascending list from the status pass,
    shipped whole so each worker can build the skip flags once and
    index its slice — or ``(spec, lo, hi, dominated_ref)`` on the shm
    plane, where the list lives in a call-scoped segment attached on
    first touch.  Returns ``([(u, witness), ...], counter_dict)``.
    """
    if isinstance(task[0], int):
        lo, hi, dominated = task
        if state is None:
            state = _STATE
    else:
        spec, lo, hi, dom_ref = task
        if state is None:
            state = _call_state(spec)
            if _CALL is not None and _CALL["state"] is state:
                _CALL["names"].add(dom_ref.name)
        dominated = attach_view(dom_ref)
    stats = SkylineCounters()
    if state.refine == "block":
        state.ctx.ensure_refine_dominated(dominated)
        pairs = block_witness_chunk(state.ctx, dominated[lo:hi], stats)
        return pairs, _chunk_stats(stats)
    _ensure_flags(state, dominated)
    scan = scan_witness_bitset if state.refine == "bitset" else scan_witness
    pairs = [(u, scan(state, u, stats)) for u in dominated[lo:hi]]
    return pairs, _chunk_stats(stats)
