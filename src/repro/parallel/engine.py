"""``parallel_refine_sky`` — FilterRefineSky with a multi-worker refine.

The filter phase stays sequential (it is near-linear and inherently
order-coupled through its twin tie-breaks); the refine phase — the
dominant cost on candidate-heavy graphs, and independent per candidate —
is chunked over a :mod:`multiprocessing` pool.  Workers receive one CSR
snapshot of the graph (:meth:`~repro.graph.adjacency.Graph.to_csr`) via
the pool initializer, rebuild their :class:`~repro.bloom.vertex_filters.
VertexBloomIndex` once, and then scan candidate chunks; see
:mod:`repro.parallel.worker` for the two-pass decomposition and the
argument that its output is bit-for-bit the sequential one.

Guarantees:

* ``skyline``, ``dominator`` and ``candidates`` are **identical** to
  :func:`~repro.core.filter_refine.filter_refine_sky` on every input,
  for every worker count and chunk size.
* Merged counters are deterministic — per-candidate tallies summed over
  any partition — though they differ from the sequential schedule's
  (the status pass stops at the first dominator; the witness pass
  rescans dominated candidates).  Scheduling facts (mode, workers,
  chunk count, rescans) land in ``counters.extra["parallel_*"]`` keys,
  outside :meth:`~repro.core.counters.SkylineCounters.as_dict`.
* Small graphs (``num_edges < small_graph_edges``) and ``workers <= 1``
  run the same two passes in-process — no pool, no snapshot, no
  latency regression — with, by construction, the same result and the
  same counter totals.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from array import array
from typing import Optional

from repro.bloom.vertex_filters import width_for_max_degree
from repro.core.bitset_refine import density_prefers_bloom
from repro.core.block_refine import choose_refine_kernel
from repro.core.counters import SkylineCounters
from repro.core.filter_phase import filter_phase
from repro.core.result import SkylineResult
from repro.errors import ParameterError
from repro.graph.adjacency import Graph
from repro.graph.bitmatrix import (
    HAVE_NUMPY,
    CandidateBitMatrix,
    matrix_words,
    validate_word_budget,
)
from repro.graph.cores import core_decomposition
from repro.parallel.chunks import chunk_ranges, default_chunk_size
from repro.parallel.params import validate_pool_params
from repro.parallel.shm import (
    ShmDataPlane,
    buffer_typecode,
    resolve_data_plane,
)
from repro.parallel.supervisor import (
    DEFAULT_MAX_RETRIES,
    PoolSupervisor,
    SupervisorConfig,
)
from repro.parallel.worker import (
    RefineSpec,
    build_payload,
    build_state,
    init_worker,
    run_status_chunk,
    run_witness_chunk,
    validate_status_chunk,
    validate_witness_chunk,
)

from repro.harness.faults import FaultPlan

__all__ = ["parallel_refine_sky", "default_worker_count", "SMALL_GRAPH_EDGES"]

#: Below this many edges the pool overhead dwarfs the refine itself, so
#: the engine stays in-process regardless of ``workers``.
SMALL_GRAPH_EDGES = 2048


def default_worker_count() -> int:
    """Usable CPUs of this process (affinity-aware where supported)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # platforms without affinity masks
        return os.cpu_count() or 1


def _pool_context():
    # fork shares the parent's code pages and skips re-imports; spawn is
    # the portable fallback (worker entry points are module-level).
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


def parallel_refine_sky(
    graph: Graph,
    *,
    workers: Optional[int] = None,
    chunk_size: Optional[int] = None,
    small_graph_edges: int = SMALL_GRAPH_EDGES,
    bloom_bits: Optional[int] = None,
    bits_per_element: int = 8,
    seed: int = 0,
    counters: Optional[SkylineCounters] = None,
    exact: bool = True,
    refine: str = "bloom",
    word_budget: Optional[int] = None,
    density_fallback: bool = True,
    timeout: Optional[float] = None,
    max_retries: int = DEFAULT_MAX_RETRIES,
    fault_plan: Optional[FaultPlan] = None,
    data_plane: str = "auto",
    session=None,
) -> SkylineResult:
    """Compute the neighborhood skyline with a parallel refine phase.

    Parameters
    ----------
    graph:
        The input graph.
    workers:
        Worker processes for the refine phase; ``None`` uses every
        usable CPU.  ``1`` runs in-process.
    chunk_size:
        Candidates per task; ``None`` targets a few chunks per worker.
        Purely a scheduling knob — any value yields the same result.
    small_graph_edges:
        In-process threshold: graphs with fewer edges never pay for a
        pool.  Pass ``0`` to force pooling (tests do).
    bloom_bits / bits_per_element / seed:
        Bloom sizing, as in :func:`~repro.core.filter_refine.filter_refine_sky`.
    counters:
        Optional instrumentation sink; worker tallies are merged in.
    exact:
        Must be ``True``.  The approximate variant is sequential-only:
        its one-sided bloom errors are not transitive, so the
        dominated-dominator skips it rides on are schedule-dependent
        and a parallel run could return a different subset.
    refine:
        Pair-test kernel for the scans: ``"bloom"`` (the default bloom
        ladder), ``"bitset"`` (the packed AND-NOT of
        :mod:`repro.core.bitset_refine`; the parent packs the candidate
        matrix once and ships raw words, workers rebuild views),
        ``"block"`` (the block-vectorized pivot kernel of
        :mod:`repro.core.block_refine`; the parent peels the k-core
        decomposition once and ships the core numbers), or ``"auto"``
        (the three-way cutover of
        :func:`~repro.core.block_refine.choose_refine_kernel`, decided
        here in the parent).  All kernels accept exactly the same
        pairs, so the result is identical whichever runs; counters
        differ per kernel but remain deterministic for any worker
        count and chunking.
    word_budget:
        Bitset cutover as in
        :func:`~repro.core.bitset_refine.filter_refine_bitset_sky`:
        when ``|C| · ⌈n/64⌉`` words exceed it (or numpy is missing) a
        ``refine="bitset"`` run falls back to the bloom kernel and
        records ``counters.extra["refine_path"] == "bloom-fallback"``
        with the reason in ``"bitset_fallback_reason"``.  Candidate-
        dense inputs fall back too
        (:func:`~repro.core.bitset_refine.density_prefers_bloom`) —
        the parent decides, so one run uses one kernel throughout.
        Nonpositive budgets are rejected
        (:func:`~repro.graph.bitmatrix.validate_word_budget`).
    density_fallback:
        ``False`` disables the candidate-density cutover only, as in
        :func:`~repro.core.bitset_refine.filter_refine_bitset_sky`.
    timeout / max_retries:
        Recovery policy of the :class:`~repro.parallel.supervisor.
        PoolSupervisor` every pooled run now executes under: per-chunk
        deadline in seconds (``None`` uses the supervisor default) and
        pool re-attempts per chunk before the supervisor recomputes the
        chunk sequentially in-process.  Recovery never changes the
        result — only where a chunk runs — and every recovery event is
        recorded under ``counters.extra["resilience_*"]``.
    fault_plan:
        Deterministic fault injection for chaos tests
        (:class:`~repro.harness.faults.FaultPlan`); ``None`` (the
        default, and the only sane production value) injects nothing.
        Ignored on the in-process path, which has no workers to break.
    data_plane:
        How graph-scale data reaches the workers.  ``"pickle"`` ships a
        payload per process through the pool initializer (the classic
        plane).  ``"shm"`` publishes the CSR arrays, candidate ids and
        bit-matrix words as named shared-memory segments
        (:mod:`repro.parallel.shm`); workers attach zero-copy and
        rebuild only per-process scratch (the bloom index / traversal
        workspace).  ``"auto"`` (the default) picks shm when
        :mod:`multiprocessing.shared_memory` and numpy are both usable
        and falls back to pickle otherwise — the resolved plane and any
        fallback reason land in ``counters.extra["data_plane"]`` /
        ``["data_plane_fallback_reason"]``.  Both planes are bit-for-bit
        identical in results.
    session:
        A warm :class:`~repro.parallel.session.EngineSession` for this
        same graph: the call reuses its pool and published segments
        instead of forking/publishing per call.  The session's
        scheduling knobs (``workers`` / ``timeout`` / ``max_retries`` /
        ``fault_plan``) are authoritative; passing a conflicting value
        here raises :class:`~repro.errors.ParameterError`.

    The result's ``skyline``/``dominator``/``candidates`` are identical
    to the sequential ``filter_refine_sky`` for any worker count, either
    data plane, with or without a session — and, with supervision, for
    any combination of worker crashes, hangs and corrupt payloads.
    """
    if not exact:
        raise ParameterError(
            "the parallel engine computes the exact skyline only; use "
            "algorithm='filter_refine' with exact=False for the "
            "approximate variant"
        )
    if refine not in ("bloom", "bitset", "block", "auto"):
        raise ParameterError(
            f"unknown refine kernel {refine!r}; choose 'bloom', "
            "'bitset', 'block' or 'auto'"
        )
    word_budget = validate_word_budget(word_budget)
    if session is not None:
        session.check_open()
        if session.graph is not graph:
            raise ParameterError(
                "this EngineSession was created for a different graph; "
                "sessions pin one published graph snapshot"
            )
        if workers is None:
            workers = session.workers
        elif workers != session.workers:
            raise ParameterError(
                f"workers={workers} conflicts with the session's "
                f"{session.workers}; the pool size is fixed at session "
                "construction"
            )
        if fault_plan is not None:
            raise ParameterError(
                "fault_plan is fixed at session construction; pass it "
                "to EngineSession instead"
            )
        fault_plan = session.fault_plan
        if timeout is not None and timeout != session.timeout:
            raise ParameterError(
                f"timeout={timeout} conflicts with the session's "
                f"{session.timeout}; the supervisor config is fixed at "
                "session construction"
            )
        timeout = session.timeout
        if max_retries not in (session.max_retries, DEFAULT_MAX_RETRIES):
            raise ParameterError(
                f"max_retries={max_retries} conflicts with the "
                f"session's {session.max_retries}"
            )
        max_retries = session.max_retries
        if chunk_size is None:
            chunk_size = session.chunk_size
        if data_plane == "auto":
            effective_plane = session.data_plane
            plane_reason = session.plane_fallback_reason
        else:
            resolved, _ = resolve_data_plane(data_plane)
            if resolved != session.data_plane:
                raise ParameterError(
                    f"data_plane={data_plane!r} conflicts with the "
                    f"session's {session.data_plane!r}"
                )
            effective_plane = session.data_plane
            plane_reason = session.plane_fallback_reason
    else:
        effective_plane, plane_reason = resolve_data_plane(data_plane)
    if workers is None:
        workers = default_worker_count()
    validate_pool_params(
        workers=workers,
        chunk_size=chunk_size,
        timeout=timeout,
        max_retries=max_retries,
    )
    if bloom_bits is None:
        dmax = max(graph.degrees(), default=0)
        bits = width_for_max_degree(dmax, bits_per_element)
    elif bloom_bits <= 0 or bloom_bits % 32 != 0:
        raise ParameterError(
            f"bloom width must be a positive multiple of 32, got {bloom_bits}"
        )
    else:
        bits = bloom_bits

    n = graph.num_vertices
    candidates, dominator = filter_phase(graph, counters=counters)

    # The kernel cutover is decided here in the parent — workers never
    # second-guess it — so one run uses one kernel throughout.
    effective_refine = refine
    words_needed = matrix_words(len(candidates), n)
    bitset_fallback_reason = None
    if refine == "auto":
        # choose_refine_kernel only picks "bitset" below the block
        # minimum candidate count, where the density fallback never
        # applies — no second cutover pass needed.
        effective_refine = choose_refine_kernel(
            len(candidates), n, word_budget=word_budget
        )
    elif refine == "bitset":
        if not HAVE_NUMPY or words_needed > word_budget:
            bitset_fallback_reason = "word-budget"
        elif density_fallback and density_prefers_bloom(len(candidates), n):
            bitset_fallback_reason = "candidate-density"
        if bitset_fallback_reason is not None:
            effective_refine = "bloom"
    elif refine == "block" and not HAVE_NUMPY:
        bitset_fallback_reason = "numpy-missing"
        effective_refine = "bloom"
    matrix = (
        CandidateBitMatrix.from_graph(graph, candidates)
        if effective_refine == "bitset"
        else None
    )
    # Block mode: peel the k-core decomposition once, parent-side; it
    # rides to workers like any other call-scoped snapshot.
    cores = (
        core_decomposition(graph).core
        if effective_refine == "block"
        else None
    )

    size = chunk_size or default_chunk_size(len(candidates), workers)
    status_tasks = chunk_ranges(len(candidates), size)
    use_pool = workers > 1 and graph.num_edges >= small_graph_edges

    chunk_dicts: list[dict] = []
    resilience_events: Optional[dict[str, int]] = None
    session_label: Optional[str] = None
    plane_publish_s: Optional[float] = None
    if use_pool:
        # The guaranteed sequential fallback: an in-process RefineState
        # built lazily, only if a chunk actually exhausts its retries.
        # Scans are pure functions of frozen state, so recomputing any
        # chunk here yields exactly the value the worker would have —
        # on either data plane (the chunk runners attach any segment
        # refs in their tasks themselves, parent-side too).
        _fb: list = []

        def _fallback_state():
            if not _fb:
                _fb.append(
                    build_state(
                        graph,
                        candidates,
                        dominator,
                        bits=bits,
                        seed=seed,
                        refine=effective_refine,
                        matrix=matrix,
                        cores=cores,
                    )
                )
            return _fb[0]

        if effective_plane == "shm":
            # Shared-memory plane: the graph CSR lives in named
            # segments workers attach zero-copy; call-scoped data
            # (candidates, dominators, matrix words) ships the same
            # way, so each task is a few-hundred-byte spec.
            owns_plane = session is None
            publish_t0 = time.perf_counter()
            if owns_plane:
                plane = ShmDataPlane()
                indptr, indices = graph.to_csr()
                graph_refs = {
                    "indptr": plane.publish(
                        indptr, buffer_typecode(indptr)
                    ),
                    "indices": plane.publish(
                        indices, buffer_typecode(indices)
                    ),
                }
                supervisor = PoolSupervisor(
                    workers=workers,
                    initializer=init_worker,
                    initargs=(("shm", graph_refs),),
                    config=SupervisorConfig(
                        timeout=timeout, max_retries=max_retries, seed=seed
                    ),
                    fault_plan=fault_plan,
                    mp_context=_pool_context(),
                )
                cand_ref = plane.publish(array("q", candidates), "q")
                dom_ref = plane.publish(array("q", dominator), "q")
                matrix_ref = (
                    plane.publish(matrix.rows, "B")
                    if matrix is not None
                    else None
                )
                cores_ref = (
                    plane.publish(array("q", cores), "q")
                    if cores is not None
                    else None
                )
                epoch = 1
            else:
                plane = session.plane
                supervisor = session.supervisor()
                session_label = session.note_pooled_call()
                cand_ref = session.cached_segment(
                    "cand", array("q", candidates), "q"
                )
                dom_ref = session.cached_segment(
                    "dom", array("q", dominator), "q"
                )
                matrix_ref = (
                    session.cached_segment("matrix", matrix.rows, "B")
                    if matrix is not None
                    else None
                )
                cores_ref = (
                    session.cached_segment("cores", array("q", cores), "q")
                    if cores is not None
                    else None
                )
                epoch = session.next_epoch()
            spec = RefineSpec(
                epoch=epoch,
                key=(
                    effective_refine,
                    bits,
                    seed,
                    cand_ref.name,
                    dom_ref.name,
                    matrix_ref.name if matrix_ref is not None else None,
                    cores_ref.name if cores_ref is not None else None,
                ),
                refine=effective_refine,
                bits=bits,
                seed=seed,
                candidates=cand_ref,
                dominator=dom_ref,
                matrix=matrix_ref,
                cores=cores_ref,
            )
            plane_publish_s = time.perf_counter() - publish_t0
            # A session supervisor accumulates events across calls;
            # this call's resilience tally is the delta.
            events_before = dict(supervisor.events)
            dom_blob_ref = None
            try:
                dominated: list[int] = []
                for part, stats in supervisor.run(
                    run_status_chunk,
                    [(spec, lo, hi) for lo, hi in status_tasks],
                    fallback=lambda task: run_status_chunk(
                        task, _fallback_state()
                    ),
                    validate=validate_status_chunk,
                ):
                    dominated.extend(part)
                    chunk_dicts.append(stats)
                # The dominated list is born here, between the passes —
                # always a fresh per-call segment, never cached.
                dom_blob_ref = plane.publish(array("q", dominated), "q")
                witness_tasks = [
                    (spec, lo, hi, dom_blob_ref)
                    for lo, hi in chunk_ranges(len(dominated), size)
                ]
                witness_pairs: list[tuple[int, int]] = []
                for part, stats in supervisor.run(
                    run_witness_chunk,
                    witness_tasks,
                    fallback=lambda task: run_witness_chunk(
                        task, _fallback_state()
                    ),
                    validate=validate_witness_chunk,
                ):
                    witness_pairs.extend(part)
                    chunk_dicts.append(stats)
            finally:
                if owns_plane:
                    # One-shot call: tear down pool and segments on
                    # every exit path (RecoveryError, Ctrl-C, ...).
                    supervisor.shutdown()
                    plane.close()
                elif dom_blob_ref is not None:
                    # Session call: pool and cached segments stay warm;
                    # only the per-call dominated blob is retired.
                    plane.unlink_one(dom_blob_ref)
            resilience_events = {
                key: value - events_before.get(key, 0)
                for key, value in supervisor.events.items()
            }
        else:
            if session is not None:
                # Pickle-plane sessions centralize the knobs but cannot
                # keep workers warm (nothing to re-attach): every call
                # ships a fresh payload through a fresh pool.
                session_label = "cold"
            payload = build_payload(
                graph,
                candidates,
                dominator,
                bits=bits,
                seed=seed,
                refine=effective_refine,
                matrix=matrix,
                cores=cores,
            )
            supervisor = PoolSupervisor(
                workers=workers,
                initializer=init_worker,
                initargs=(payload,),
                config=SupervisorConfig(
                    timeout=timeout, max_retries=max_retries, seed=seed
                ),
                fault_plan=fault_plan,
                mp_context=_pool_context(),
            )
            # Context management guarantees terminate()/join() on *every*
            # exit path — a chunk raising mid-iteration, RecoveryError,
            # Ctrl-C — so no child process ever outlives the engine call.
            with supervisor:
                dominated = []
                for part, stats in supervisor.run(
                    run_status_chunk,
                    status_tasks,
                    fallback=lambda task: run_status_chunk(
                        task, _fallback_state()
                    ),
                    validate=validate_status_chunk,
                ):
                    dominated.extend(part)
                    chunk_dicts.append(stats)
                blob = array("q", dominated)
                witness_tasks = [
                    (lo, hi, blob)
                    for lo, hi in chunk_ranges(len(dominated), size)
                ]
                witness_pairs = []
                for part, stats in supervisor.run(
                    run_witness_chunk,
                    witness_tasks,
                    fallback=lambda task: run_witness_chunk(
                        task, _fallback_state()
                    ),
                    validate=validate_witness_chunk,
                ):
                    witness_pairs.extend(part)
                    chunk_dicts.append(stats)
            resilience_events = supervisor.events
    else:
        state = build_state(
            graph,
            candidates,
            dominator,
            bits=bits,
            seed=seed,
            refine=effective_refine,
            matrix=matrix,
            cores=cores,
        )
        dominated = []
        for task in status_tasks:
            part, stats = run_status_chunk(task, state)
            dominated.extend(part)
            chunk_dicts.append(stats)
        witness_pairs = []
        for task in chunk_ranges(len(dominated), size):
            part, stats = run_witness_chunk((*task, dominated), state)
            witness_pairs.extend(part)
            chunk_dicts.append(stats)

    final = list(dominator)
    for u, w in witness_pairs:
        final[u] = w

    if counters is not None:
        for delta in chunk_dicts:
            counters.merge_dict(delta)
        counters.extra["parallel_mode"] = "pool" if use_pool else "in-process"
        counters.extra["parallel_workers"] = workers
        counters.extra["parallel_chunks"] = len(status_tasks)
        counters.extra["parallel_rescans"] = len(dominated)
        if use_pool:
            counters.extra["data_plane"] = effective_plane
            if plane_reason is not None:
                counters.extra["data_plane_fallback_reason"] = plane_reason
            if session_label is not None:
                counters.extra["parallel_session"] = session_label
            if plane_publish_s is not None:
                counters.extra["plane_publish_s"] = plane_publish_s
        if resilience_events is not None:
            for key, value in resilience_events.items():
                counters.extra[key] = counters.extra.get(key, 0) + value
        if bitset_fallback_reason is not None:
            counters.extra["refine_path"] = "bloom-fallback"
            counters.extra["bitset_fallback_reason"] = bitset_fallback_reason
            if bitset_fallback_reason == "word-budget":
                counters.extra["bitset_words_over_budget"] = words_needed
            elif bitset_fallback_reason == "candidate-density":
                counters.extra["candidate_density"] = (
                    len(candidates) / n if n else 0.0
                )
        else:
            counters.extra["refine_path"] = effective_refine
        if refine == "auto":
            counters.extra["refine_requested"] = "auto"
        if effective_refine == "block":
            # The chunk merges already accumulated the pretest tally;
            # pin the key even when no pair was ever rejected.
            counters.extra.setdefault("core_pretest_rejects", 0)

    skyline = tuple(u for u in range(n) if final[u] == u)
    return SkylineResult(
        skyline=skyline,
        dominator=tuple(final),
        candidates=tuple(candidates),
        algorithm="FilterRefineSkyParallel",
        counters=counters,
    )
