"""Centrality measures and the group-maximization applications.

* Vertex measures: closeness, harmonic, betweenness.
* Group measures: ``group_closeness`` (Def. 7), ``group_harmonic``
  (Def. 9), ``group_betweenness`` (Sec. IV-D extension).
* Greedy maximizers: ``base_gc``/``neisky_gc``, ``base_gh``/``neisky_gh``
  and ``base_gb``/``neisky_gb`` — the Base*/NeiSky* pairs differ only in
  the candidate pool, so timing comparisons isolate the skyline pruning.
  Each accepts ``strategy="lazy"`` for the CELF engine
  (:mod:`repro.centrality.lazy_greedy`): identical output, far fewer
  gain evaluations.  Lazy is the default for closeness and harmonic;
  betweenness keeps the eager default.
"""

from repro.centrality.betweenness import betweenness_centrality, sp_counts_from
from repro.centrality.closeness import (
    closeness_centrality,
    group_closeness,
    group_farness,
)
from repro.centrality.greedy import GainObjective, GreedyResult, greedy_maximize
from repro.centrality.group_betweenness_max import (
    GroupBetweennessResult,
    base_gb,
    group_betweenness,
    neisky_gb,
)
from repro.centrality.group_closeness_max import (
    ClosenessObjective,
    base_gc,
    neisky_gc,
)
from repro.centrality.group_harmonic_max import HarmonicObjective, base_gh, neisky_gh
from repro.centrality.harmonic import group_harmonic, harmonic_centrality
from repro.centrality.lazy_greedy import lazy_greedy_maximize, run_greedy

__all__ = [
    "betweenness_centrality",
    "sp_counts_from",
    "closeness_centrality",
    "group_closeness",
    "group_farness",
    "GainObjective",
    "GreedyResult",
    "greedy_maximize",
    "lazy_greedy_maximize",
    "run_greedy",
    "GroupBetweennessResult",
    "base_gb",
    "group_betweenness",
    "neisky_gb",
    "ClosenessObjective",
    "base_gc",
    "neisky_gc",
    "HarmonicObjective",
    "base_gh",
    "neisky_gh",
    "group_harmonic",
    "harmonic_centrality",
]
