"""repro — Neighborhood Skyline on Graphs (ICDE 2023 reproduction).

A from-scratch Python implementation of the neighborhood-skyline
concepts, algorithms and applications of Zhang et al., ICDE 2023:

* the skyline algorithms (BaseSky, FilterPhase, FilterRefineSky and the
  Base2Hop / BaseCSet / LC-Join comparison baselines),
* the application layer (group closeness / harmonic maximization with
  skyline pruning, maximum-clique and top-k-clique search),
* the substrates they need (graph representation and generators, bloom
  filters, BFS machinery, set-containment joins),
* dataset stand-ins and the full benchmark harness reproducing the
  paper's tables and figures.

Quickstart::

    from repro import neighborhood_skyline
    from repro.graph import karate_club

    result = neighborhood_skyline(karate_club())
    print(result.skyline)

The default ``algorithm="auto"`` is FilterRefineSky's filter phase with
the block-vectorized refine kernel; ``algorithm="filter_refine"`` names
the paper's Alg. 3 with its bloom refine.
"""

from repro.core import (
    SkylineCounters,
    SkylineResult,
    neighborhood_candidates,
    neighborhood_skyline,
)
from repro.graph import Graph, GraphBuilder

__version__ = "1.0.0"

__all__ = [
    "Graph",
    "GraphBuilder",
    "SkylineCounters",
    "SkylineResult",
    "neighborhood_candidates",
    "neighborhood_skyline",
    "__version__",
]
