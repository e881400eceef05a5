"""Group closeness maximization: ``BaseGC``/Greedy++-style vs ``NeiSkyGC``.

Sec. IV-A of the paper.  The greedy evaluator is shared (truncated-BFS
marginal gains, the core engineering of Greedy++); the two entry points
differ only in the candidate pool:

* :func:`base_gc` — all vertices (the paper's BaseGC / Greedy++ role);
* :func:`neisky_gc` — Algorithm 4: only skyline vertices, justified by
  Lemma 3 (``v ≤ u`` implies ``GC(S∪{u}) ≥ GC(S∪{v})``).

Gains are measured in **farness units**: adding ``u`` changes farness by
``Σ (old − new)`` over improved vertices, with ``u``'s own removed term
appearing naturally as the ``new = 0`` improvement.  Maximizing the
farness drop per round is identical to maximizing
``GC(S ∪ {u}) = n / F(S ∪ {u})``.

Both entry points run the CELF engine of
:mod:`repro.centrality.lazy_greedy` by default; ``strategy="eager"``
runs the reference driver (identical output, and the paper's evaluation
counts).
"""

from __future__ import annotations

from typing import Optional

from repro.centrality.greedy import GreedyResult
from repro.centrality.lazy_greedy import run_greedy
from repro.core.api import neighborhood_skyline
from repro.graph.adjacency import Graph

__all__ = ["ClosenessObjective", "base_gc", "neisky_gc"]


class ClosenessObjective:
    """Farness-drop gain weights for group closeness.

    ``old == -1`` (unreachable) is valued at the penalty ``n`` — see
    :mod:`repro.centrality.closeness` for the convention.
    """

    name = "group_closeness"
    #: Picks the lazy driver's gain fold
    #: (:class:`repro.paths.csr.CSRTraversal`).
    csr_kernel = "closeness"

    def __init__(self, graph: Graph):
        self.penalty = graph.num_vertices

    def gain_weight(self, old: int, new: int) -> float:
        """Farness drop contributed by one improved vertex."""
        old_value = self.penalty if old == -1 else old
        return float(old_value - new)


def base_gc(
    graph: Graph,
    k: int,
    *,
    strategy: str = "lazy",
) -> GreedyResult:
    """Greedy group-closeness over the full vertex set (``BaseGC``).

    ``strategy="eager"`` performs ``k(2n − k + 1)/2`` marginal-gain
    evaluations; the default lazy strategy returns the identical result
    with (typically far) fewer.
    """
    return run_greedy(
        graph,
        k,
        ClosenessObjective(graph),
        strategy=strategy,
    )


def neisky_gc(
    graph: Graph,
    k: int,
    *,
    skyline: Optional[tuple[int, ...]] = None,
    strategy: str = "lazy",
) -> GreedyResult:
    """Algorithm 4 (``NeiSkyGC``): greedy restricted to the skyline.

    ``skyline`` may be passed in when already computed (benchmarks reuse
    one skyline across many ``k``); otherwise
    :func:`~repro.core.api.neighborhood_skyline` runs first.
    ``strategy="eager"`` performs ``k(2r − k + 1)/2`` evaluations for
    ``r = |R|``.
    """
    if skyline is None:
        skyline = neighborhood_skyline(graph).skyline
    return run_greedy(
        graph,
        k,
        ClosenessObjective(graph),
        candidates=skyline,
        strategy=strategy,
    )
