"""High-level entry points for neighborhood-skyline computation.

:func:`neighborhood_skyline` is the one function most users need: it
dispatches by name to the five algorithms the paper evaluates (plus the
block refine kernel behind the ``"auto"`` default) and returns a
uniform :class:`~repro.core.result.SkylineResult`.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.base_sky import base_sky
from repro.core.block_refine import filter_refine_block_sky
from repro.core.counters import SkylineCounters
from repro.core.cset import base_cset_sky
from repro.core.filter_phase import filter_phase
from repro.core.filter_refine import filter_refine_sky
from repro.core.join_sky import lc_join_sky
from repro.core.naive import naive_skyline
from repro.core.result import SkylineResult
from repro.core.two_hop import base_two_hop_sky
from repro.errors import ParameterError
from repro.graph.adjacency import Graph

__all__ = [
    "neighborhood_skyline",
    "neighborhood_candidates",
    "group_centrality_maximize",
    "EngineSession",
    "engine_session",
    "ALGORITHMS",
]


#: Name → implementation for every skyline algorithm in the paper's Exp-1,
#: plus the naive reference and the block refine kernel, which is also
#: the ``"auto"`` default.
ALGORITHMS: dict[str, Callable[..., SkylineResult]] = {
    "auto": filter_refine_block_sky,
    "filter_refine": filter_refine_sky,
    "filter_refine_block": filter_refine_block_sky,
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
        One of ``"auto"`` (the default: the paper's FilterRefineSky
        filter phase, then the block-vectorized pivot refine of
        :mod:`repro.core.block_refine`; an alias of
        ``"filter_refine_block"``), ``"filter_refine"`` (the paper's
        FilterRefineSky, Alg. 3, with its bloom refine — the reference
        the figure scripts name and the differential oracle),
        ``"base"`` (BaseSky), ``"two_hop"`` (Base2Hop), ``"cset"``
        (BaseCSet), ``"lc_join"`` (the containment-join baseline) or
        ``"naive"`` (the quadratic reference).
    counters:
        Optional :class:`SkylineCounters` to collect work statistics.
    options:
        Algorithm-specific keywords, e.g. ``bloom_bits`` / ``seed`` /
        ``exact`` for ``"filter_refine"`` and ``"two_hop"``.

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


class EngineSession:
    """One graph and its lazily computed default skyline.

    Graphs are immutable, so the first :meth:`refine_sky` runs
    :func:`neighborhood_skyline` with ``algorithm="auto"`` and every
    later call returns that same :class:`SkylineResult`.  ``counters``
    are filled by the first computation only; a cache hit does no work
    to count.  :meth:`close` drops the cache (the next call recomputes).
    Use as a context manager, or call ``close()`` yourself:

        with engine_session(graph) as session:
            sky = session.refine_sky()
    """

    def __init__(self, graph: Graph):
        self.graph = graph
        self._skyline: Optional[SkylineResult] = None

    @property
    def cached(self) -> bool:
        """``True`` once the skyline has been computed (until close)."""
        return self._skyline is not None

    def refine_sky(
        self, *, counters: Optional[SkylineCounters] = None
    ) -> SkylineResult:
        """The graph's default skyline, computed on the first call."""
        if self._skyline is None:
            self._skyline = neighborhood_skyline(self.graph, counters=counters)
        return self._skyline

    def close(self) -> None:
        """Drop the cached skyline.  Idempotent."""
        self._skyline = None

    def __enter__(self) -> "EngineSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def validate_workers(workers: int) -> None:
    """Accept only ``workers=1``: every engine runs in-process."""
    if workers != 1:
        raise ParameterError(
            f"workers must be 1, got {workers!r}: every engine runs "
            "in-process"
        )


def engine_session(graph: Graph, *, workers: int = 1) -> EngineSession:
    """An :class:`EngineSession` (a per-graph skyline cache) for ``graph``.

    ``workers`` is accepted for compatibility and must be ``1``.
    """
    validate_workers(workers)
    return EngineSession(graph)


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
    strategy: str = "lazy",
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
        computes it with :func:`neighborhood_skyline`).
    strategy:
        Greedy schedule: ``"lazy"`` (the default) is the CELF engine of
        :mod:`repro.centrality.lazy_greedy`, ``"eager"`` the reference
        driver — identical group and gains; eager reports the paper's
        Example 2 ``evaluations`` count, lazy its own smaller one.

    Returns a :class:`~repro.centrality.greedy.GreedyResult`.  Imported
    lazily: :mod:`repro.centrality` itself imports core modules.
    """
    from repro.centrality import base_gc, base_gh, neisky_gc, neisky_gh

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
        return base_run(graph, k, strategy=strategy)
    return sky_run(graph, k, skyline=skyline, strategy=strategy)
