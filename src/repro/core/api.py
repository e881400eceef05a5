"""High-level entry points for neighborhood-skyline computation.

:func:`neighborhood_skyline` is the one function most users need: it
dispatches by name to the five algorithms the paper evaluates (plus the
kernel variants of FilterRefineSky and the ``"auto"`` default that picks
among them) and returns a uniform
:class:`~repro.core.result.SkylineResult`.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.bloom.vertex_filters import VertexBloomIndex
from repro.core.base_sky import base_sky
from repro.core.bitset_refine import (
    BitsetScanContext,
    bitset_refine_pass,
    filter_refine_bitset_sky,
)
from repro.core.block_refine import (
    block_refine_pass,
    choose_refine_kernel,
    filter_refine_block_sky,
)
from repro.core.counters import NULL_COUNTERS, SkylineCounters
from repro.core.cset import base_cset_sky
from repro.core.filter_phase import filter_phase
from repro.core.filter_refine import bloom_refine_pass, filter_refine_sky
from repro.core.join_sky import lc_join_sky
from repro.core.naive import naive_skyline
from repro.core.result import SkylineResult
from repro.core.two_hop import base_two_hop_sky
from repro.errors import ParameterError
from repro.graph.adjacency import Graph
from repro.graph.bitmatrix import CandidateBitMatrix, validate_word_budget

__all__ = [
    "auto_refine_sky",
    "neighborhood_skyline",
    "neighborhood_candidates",
    "group_centrality_maximize",
    "engine_session",
    "serve",
    "ALGORITHMS",
]


def _parallel_refine_sky(graph: Graph, **options) -> SkylineResult:
    """Deferred dispatch to :func:`repro.parallel.engine.parallel_refine_sky`.

    The engine module imports :mod:`repro.core` internals, so a
    module-level import here would close an import cycle that breaks
    whichever package loads second; binding at call time keeps every
    import order valid.
    """
    from repro.parallel.engine import parallel_refine_sky

    return parallel_refine_sky(graph, **options)


def auto_refine_sky(
    graph: Graph,
    *,
    counters: Optional[SkylineCounters] = None,
    word_budget: Optional[int] = None,
) -> SkylineResult:
    """FilterRefineSky with the fastest refine kernel for the input.

    Runs the filter phase once, then hands its output to the kernel
    :func:`~repro.core.block_refine.choose_refine_kernel` names for the
    candidate count — the same cutover the parallel engine's
    ``refine="auto"`` uses — so the result is bit-for-bit
    :func:`~repro.core.filter_refine.filter_refine_sky`'s.
    ``word_budget`` bounds the bitset kernel's packed matrix as in
    :func:`~repro.core.bitset_refine.filter_refine_bitset_sky`.
    ``counters.extra`` records the kernel that ran under
    ``"refine_path"`` and ``"refine_requested" == "auto"``.
    """
    word_budget = validate_word_budget(word_budget)
    stats = counters if counters is not None else NULL_COUNTERS
    n = graph.num_vertices
    candidates, dominator = filter_phase(graph, counters=counters)
    kernel = choose_refine_kernel(
        len(candidates), n, word_budget=word_budget
    )
    if kernel == "block":
        block_refine_pass(graph, candidates, dominator, stats)
    elif kernel == "bitset":
        matrix = CandidateBitMatrix.from_graph(graph, candidates)
        ctx = BitsetScanContext(
            graph, candidates, matrix, instrumented=counters is not None
        )
        bitset_refine_pass(ctx, candidates, dominator, stats)
    else:
        blooms = VertexBloomIndex(graph, candidates)
        bloom_refine_pass(graph, candidates, dominator, blooms, stats)
    if counters is not None:
        counters.extra["refine_path"] = kernel
        counters.extra["refine_requested"] = "auto"

    skyline = tuple(u for u in range(n) if dominator[u] == u)
    return SkylineResult(
        skyline=skyline,
        dominator=tuple(dominator),
        candidates=tuple(candidates),
        algorithm=f"FilterRefineSkyAuto({kernel})",
        counters=counters,
    )


#: Name → implementation for every skyline algorithm in the paper's Exp-1,
#: plus the naive reference, the kernel variants, the ``"auto"`` default
#: and the multi-worker refine engine.
ALGORITHMS: dict[str, Callable[..., SkylineResult]] = {
    "auto": auto_refine_sky,
    "filter_refine": filter_refine_sky,
    "filter_refine_bitset": filter_refine_bitset_sky,
    "filter_refine_block": filter_refine_block_sky,
    "filter_refine_parallel": _parallel_refine_sky,
    "base": base_sky,
    "two_hop": base_two_hop_sky,
    "cset": base_cset_sky,
    "lc_join": lc_join_sky,
    "naive": naive_skyline,
}


def neighborhood_skyline(
    graph: Graph,
    algorithm: str = "auto",
    *,
    counters: Optional[SkylineCounters] = None,
    **options,
) -> SkylineResult:
    """Compute the neighborhood skyline of ``graph``.

    Parameters
    ----------
    graph:
        The input graph.
    algorithm:
        One of ``"auto"`` (the default: the paper's FilterRefineSky with
        the refine kernel picked by candidate count — the packed-bitset
        kernel on small candidate sets, the block kernel on large ones;
        see :func:`auto_refine_sky`), ``"filter_refine"`` (the paper's
        FilterRefineSky, Alg. 3, with its bloom refine — the reference
        the figure scripts name), ``"filter_refine_bitset"`` (the same
        result via the packed-bitset refine kernel — the fastest on
        small dense candidate sets, with an automatic bloom fallback
        past its word budget), ``"filter_refine_block"`` (the same
        result via the block-vectorized pivot kernel of
        :mod:`repro.core.block_refine` — the fastest on large candidate
        sets, no bit matrix needed), ``"filter_refine_parallel"`` (the
        same result computed with a multi-worker refine phase), ``"base"``
        (BaseSky), ``"two_hop"`` (Base2Hop), ``"cset"`` (BaseCSet),
        ``"lc_join"`` (the containment-join baseline) or ``"naive"``
        (the quadratic reference).
    counters:
        Optional :class:`SkylineCounters` to collect work statistics.
    options:
        Algorithm-specific keywords, e.g. ``bloom_bits`` / ``seed`` /
        ``exact`` for ``"filter_refine"`` and ``"two_hop"``,
        ``word_budget`` for ``"auto"`` and ``"filter_refine_bitset"``, or
        ``workers`` / ``chunk_size`` / ``refine`` for
        ``"filter_refine_parallel"``.

    >>> from repro.graph.generators import complete_graph
    >>> neighborhood_skyline(complete_graph(5)).skyline
    (0,)
    """
    try:
        impl = ALGORITHMS[algorithm]
    except KeyError:
        raise ParameterError(
            f"unknown skyline algorithm {algorithm!r}; choose from "
            f"{sorted(ALGORITHMS)}"
        ) from None
    return impl(graph, counters=counters, **options)


def engine_session(graph: Graph, **options):
    """A warm :class:`~repro.parallel.session.EngineSession` for ``graph``.

    The session owns one worker pool and (on the shared-memory data
    plane) one published CSR snapshot; repeated
    ``session.refine_sky(...)`` / ``session.greedy_maximize(...)``
    calls — or explicit ``session=`` passes to the pooled engines —
    reuse both, so only the first call pays fork + publish.  Use as a
    context manager, or call ``close()`` yourself:

        with engine_session(graph, workers=4) as session:
            sky = session.refine_sky()
            grp = session.greedy_maximize(8, objective)

    ``options`` are :class:`EngineSession`'s keywords (``workers``,
    ``data_plane``, ``chunk_size``, ``timeout``, ``max_retries``,
    ``fault_plan``, ``seed``).  Imported lazily for the same
    import-cycle reason as :func:`_parallel_refine_sky`.
    """
    from repro.parallel.session import EngineSession

    return EngineSession(graph, **options)


def serve(
    graphs,
    *,
    host: str = "127.0.0.1",
    port: int = 8321,
    workers: int = 1,
    data_plane: str = "auto",
    timeout: Optional[float] = None,
    queue_capacity: int = 64,
    batch_max: int = 8,
    request_timeout_s: Optional[float] = 30.0,
    max_requests: Optional[int] = None,
    query_deadline_s: Optional[float] = 60.0,
    max_session_rebuilds: int = 8,
    breaker_threshold: int = 3,
    breaker_cooldown_s: float = 1.0,
    degraded_cache: bool = True,
    fault_plan=None,
) -> int:
    """Skyline-as-a-service in one call (blocking).

    ``graphs`` is an iterable of spec strings — a registry dataset name
    (``"karate"``) or ``alias=path`` for an edge-list file.  Each graph
    gets one warm :func:`engine_session`; ``skyline`` / ``group`` /
    ``clique`` queries are served over HTTP through a bounded priority
    queue with per-request deadlines and 429 backpressure.  The server
    is self-healing: a per-query watchdog (``query_deadline_s``) and
    per-graph circuit breakers (``breaker_threshold`` /
    ``breaker_cooldown_s``) rebuild failed warm sessions (up to
    ``max_session_rebuilds`` per graph) and degrade one broken graph —
    cached skyline marked ``degraded: true`` when ``degraded_cache`` —
    without touching the others.  ``fault_plan`` injects a
    :class:`~repro.harness.faults.ServeFaultPlan` for chaos harness
    runs.  See :mod:`repro.serve` and ``docs/serving.md``; the CLI
    equivalent is ``repro serve``.  Returns the process exit code.
    Imported lazily — the serving layer pulls in the parallel stack.
    """
    from repro.serve import (
        GraphRegistry,
        ServeConfig,
        SupervisionConfig,
        run_server,
    )

    registry = GraphRegistry(
        workers=workers, data_plane=data_plane, timeout=timeout
    )
    try:
        for spec in graphs:
            registry.register_spec(spec)
        if not len(registry):
            raise ParameterError("serve needs at least one graph spec")
        config = ServeConfig(
            host=host,
            port=port,
            queue_capacity=queue_capacity,
            batch_max=batch_max,
            default_timeout_s=request_timeout_s,
            max_requests=max_requests,
            supervision=SupervisionConfig(
                query_deadline_s=query_deadline_s,
                max_session_rebuilds=max_session_rebuilds,
                breaker_threshold=breaker_threshold,
                breaker_cooldown_s=breaker_cooldown_s,
                degraded_cache=degraded_cache,
            ),
        )
        return run_server(registry, config, fault_plan=fault_plan)
    finally:
        registry.close()


def neighborhood_candidates(
    graph: Graph, *, counters: Optional[SkylineCounters] = None
) -> tuple[int, ...]:
    """The candidate set ``C`` of the filter phase alone (Lemma 1 superset)."""
    candidates, _dominator = filter_phase(graph, counters=counters)
    return tuple(candidates)


def group_centrality_maximize(
    graph: Graph,
    k: int,
    *,
    measure: str = "closeness",
    use_skyline: bool = True,
    skyline: Optional[tuple[int, ...]] = None,
    strategy: str = "eager",
    workers: int = 1,
    timeout: Optional[float] = None,
    data_plane: str = "auto",
    session=None,
    gain_batch="auto",
):
    """One-call dispatcher for the Sec. IV group-centrality applications.

    Parameters
    ----------
    graph:
        The input graph.
    k:
        Desired group size.
    measure:
        ``"closeness"`` (Def. 7) or ``"harmonic"`` (Def. 9).
    use_skyline:
        ``True`` runs the NeiSky* variant (candidate pool restricted to
        the neighborhood skyline), ``False`` the Base* variant.
    skyline:
        Precomputed skyline to reuse when ``use_skyline`` (``None``
        computes it with FilterRefineSky).
    strategy / workers:
        Greedy schedule: ``"eager"`` is the reference driver,
        ``"lazy"`` the CELF engine of
        :mod:`repro.centrality.lazy_greedy` — identical output, fewer
        evaluations — with ``workers`` fanning its first round over a
        process pool.
    timeout:
        Per-chunk deadline (seconds) of the round-0 pool's supervisor;
        ``None`` uses the supervisor default.  Recovery never changes
        the result.
    data_plane / session:
        Data plane for the round-0 fan-out and an optional warm
        :func:`engine_session` to run it on — see
        :func:`~repro.parallel.engine.parallel_refine_sky` for the
        plane semantics.  Identical output either way.
    gain_batch:
        Marginal-gain lanes per batched evaluation-kernel call:
        ``"auto"`` (the default) sizes from ``n`` and the candidate
        pool, a positive int forces that lane count, ``1`` forces the
        scalar kernels.  Purely an execution knob — the batched kernel
        is bit-for-bit equal to the scalar one (see
        :mod:`repro.paths.csr`), so the group never depends on it.

    Returns a :class:`~repro.centrality.greedy.GreedyResult`.  Imported
    lazily: :mod:`repro.centrality` itself imports core modules.

    Pool parameters are validated here, at the API boundary, so a bad
    value raises :class:`~repro.errors.ParameterError` before any graph
    work (or pool fork) happens.
    """
    from repro.centrality import base_gc, base_gh, neisky_gc, neisky_gh
    from repro.parallel.params import validate_pool_params
    from repro.paths.csr import validate_gain_batch

    validate_pool_params(workers=workers, timeout=timeout)
    validate_gain_batch(gain_batch)
    if measure == "closeness":
        base_run, sky_run = base_gc, neisky_gc
    elif measure == "harmonic":
        base_run, sky_run = base_gh, neisky_gh
    else:
        raise ParameterError(
            f"unknown group measure {measure!r}; choose 'closeness' or "
            "'harmonic'"
        )
    if not use_skyline:
        return base_run(
            graph,
            k,
            strategy=strategy,
            workers=workers,
            timeout=timeout,
            data_plane=data_plane,
            session=session,
            gain_batch=gain_batch,
        )
    return sky_run(
        graph,
        k,
        skyline=skyline,
        strategy=strategy,
        workers=workers,
        timeout=timeout,
        data_plane=data_plane,
        session=session,
        gain_batch=gain_batch,
    )
