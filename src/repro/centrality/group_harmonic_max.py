"""Group harmonic maximization: ``BaseGH``/Greedy-H vs ``NeiSkyGH``.

Sec. IV-B of the paper.  Same structure as the closeness pair; the gain
weight is the harmonic delta: an improvement from ``old`` to ``new``
contributes ``1/new − 1/old``, and the added vertex itself (``new = 0``)
contributes ``−1/old`` — its term leaves the sum, which is what makes
``GH`` non-monotone.  With an empty group the first round's gain equals
the vertex harmonic centrality exactly, so the driver reproduces
Greedy-H's "seed with the highest harmonic vertex" behaviour without a
special case.

Skyline pruning is justified by Lemma 4 (``v ≤ u`` implies
``GH(S∪{u}) ≥ GH(S∪{v})``).

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

__all__ = ["HarmonicObjective", "base_gh", "neisky_gh"]


class HarmonicObjective:
    """Harmonic-sum gain weights for group harmonic."""

    name = "group_harmonic"
    #: Picks the lazy driver's gain fold
    #: (:class:`repro.paths.csr.CSRTraversal`).
    csr_kernel = "harmonic"

    def gain_weight(self, old: int, new: int) -> float:
        """Harmonic-sum delta contributed by one improved vertex."""
        old_term = 0.0 if old == -1 else 1.0 / old  # old >= 1 when finite
        if new == 0:
            # The candidate itself joins S: its own term is removed.
            return -old_term
        return 1.0 / new - old_term


def base_gh(
    graph: Graph,
    k: int,
    *,
    strategy: str = "lazy",
) -> GreedyResult:
    """Greedy group-harmonic over the full vertex set (``BaseGH``)."""
    return run_greedy(
        graph,
        k,
        HarmonicObjective(),
        strategy=strategy,
    )


def neisky_gh(
    graph: Graph,
    k: int,
    *,
    skyline: Optional[tuple[int, ...]] = None,
    strategy: str = "lazy",
) -> GreedyResult:
    """``NeiSkyGH``: greedy group-harmonic restricted to the skyline."""
    if skyline is None:
        skyline = neighborhood_skyline(graph).skyline
    return run_greedy(
        graph,
        k,
        HarmonicObjective(),
        candidates=skyline,
        strategy=strategy,
    )
