"""Generic greedy driver for group-centrality maximization.

Both applications of Sec. IV (group closeness and group harmonic) — and
the Base*/NeiSky* variants of each — are instances of one loop:

    repeat k times:
        evaluate the marginal gain of every candidate not yet in S
        add the best candidate to S

The pieces that vary are factored out:

* the **objective** supplies a ``gain_weight(old, new)`` function that
  converts one improved distance into gain units (closeness: farness
  drop ``old - new``; harmonic: ``1/new - 1/old``), evaluated over the
  stream of a truncated BFS (:func:`repro.paths.csr.improvements`);
* the **candidate pool** is either all of ``V`` (BaseGC / BaseGH) or the
  neighborhood skyline ``R`` (NeiSkyGC / NeiSkyGH, Algorithm 4) — the
  pruning is *only* a pool restriction, exactly as the paper argues in
  Sec. IV-D, so measured speedups isolate the skyline's contribution.

``evaluations`` counts marginal-gain computations: ``k(2n - k + 1)/2``
for the full pool versus ``k(2r - k + 1)/2`` for the skyline pool — the
quantities the paper compares in Example 2.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Optional, Protocol

from repro.core.deadline import check as check_deadline
from repro.errors import ParameterError
from repro.graph.adjacency import Graph
from repro.paths.csr import improvements

__all__ = [
    "GainObjective",
    "GreedyResult",
    "candidate_pool",
    "greedy_maximize",
]


class GainObjective(Protocol):
    """What the greedy driver needs from an objective."""

    #: Human-readable name used in reports.
    name: str

    def gain_weight(self, old: int, new: int) -> float:
        """Gain contributed by one vertex whose distance to the group
        drops from ``old`` to ``new`` (``old == -1`` means unreachable;
        ``new == 0`` identifies the added vertex itself)."""
        ...


@dataclass(frozen=True)
class GreedyResult:
    """Outcome of a greedy group-centrality run.

    ``gains[i]`` is the marginal gain realized in round ``i`` (in the
    objective's own units); ``evaluations`` counts marginal-gain
    computations — the work measure the paper's Example 2 compares;
    ``pool_size`` is the candidate-pool cardinality the run started from.

    ``evaluations_saved`` is how many evaluations the run avoided
    relative to the eager schedule over the same pool (always 0 for the
    eager driver itself); ``strategy`` records which driver produced the
    result (``"eager"`` or ``"lazy"``).
    """

    group: tuple[int, ...]
    gains: tuple[float, ...]
    evaluations: int
    pool_size: int
    objective: str
    evaluations_saved: int = 0
    strategy: str = "eager"

    @property
    def total_gain(self) -> float:
        return sum(self.gains)


def candidate_pool(candidates: Optional[Iterable[int]], n: int) -> list[int]:
    """The sorted, deduplicated candidate pool; all of ``V`` for ``None``.

    Every candidate must be an integer vertex ID in ``[0, n)`` (numpy
    integers included); a ``bool``, float or string is rejected with a
    one-line :class:`~repro.errors.ParameterError`.
    """
    if candidates is None:
        return list(range(n))
    pool = set()
    for u in candidates:
        if type(u) is not int:  # bool is a subclass: it lands here too
            try:
                if isinstance(u, bool):
                    raise TypeError
                u = operator.index(u)
            except TypeError:
                raise ParameterError(
                    f"candidate {u!r} is not an integer vertex ID"
                ) from None
        if not (0 <= u < n):
            raise ParameterError(f"candidate {u} out of range")
        pool.add(u)
    return sorted(pool)


def greedy_maximize(
    graph: Graph,
    k: int,
    objective: GainObjective,
    *,
    candidates: Optional[Iterable[int]] = None,
) -> GreedyResult:
    """Greedily build a size-``k`` group maximizing ``objective``.

    Parameters
    ----------
    graph:
        The host graph.
    k:
        Desired group size (capped at ``n``).
    objective:
        A :class:`GainObjective` (see
        :mod:`repro.centrality.group_closeness_max` /
        :mod:`repro.centrality.group_harmonic_max`).
    candidates:
        Candidate pool; default is all of ``V``.  When the pool runs dry
        before ``k`` picks (``k > |R|`` under skyline pruning), the
        remaining rounds fall back to evaluating all of ``V \\ S`` so the
        requested group size is always honoured.

    Ties between equal gains break to the smaller vertex ID, making runs
    deterministic and Base/NeiSky variants comparable.

    This is the scalar reference driver: every gain is the generator
    stream of :func:`repro.paths.csr.improvements` folded through
    ``gain_weight``, and the lazy engine
    (:mod:`repro.centrality.lazy_greedy`) is tested against it bit for
    bit.  It accepts any :class:`GainObjective`; the lazy engine only
    the closeness and harmonic objectives its kernels fold.
    """
    if k < 0:
        raise ParameterError(f"group size k must be >= 0, got {k}")
    n = graph.num_vertices
    k = min(k, n)
    pool = candidate_pool(candidates, n)

    in_group = bytearray(n)
    dist = [-1] * n  # d(v, S); -1 = infinity while S is empty
    group: list[int] = []
    gains: list[float] = []
    evaluations = 0
    weight = objective.gain_weight

    for _round in range(k):
        check_deadline()
        active = [u for u in pool if not in_group[u]]
        if not active:
            # Pool exhausted (k > |pool|): fall back to the full vertex
            # set for the remaining rounds.
            active = [u for u in range(n) if not in_group[u]]
            if not active:
                break
        best_u = -1
        best_gain = float("-inf")
        best_updates: list[tuple[int, int]] = []
        for u in active:
            evaluations += 1
            gain = 0.0
            updates: list[tuple[int, int]] = []
            append = updates.append
            for v, old, new in improvements(graph, u, dist):
                gain += weight(old, new)
                append((v, new))
            if gain > best_gain:
                best_gain = gain
                best_u = u
                best_updates = updates
        # Commit: apply the winner's improvements, cached during the
        # scan — re-running its BFS here would be pure duplicate work.
        for v, new in best_updates:
            dist[v] = new
        in_group[best_u] = 1
        group.append(best_u)
        gains.append(best_gain)

    return GreedyResult(
        group=tuple(group),
        gains=tuple(gains),
        evaluations=evaluations,
        pool_size=len(pool),
        objective=objective.name,
    )
