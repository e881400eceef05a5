"""Neighborhood-skyline computation — the paper's core contribution.

Most callers want :func:`~repro.core.api.neighborhood_skyline`; the
individual algorithms (BaseSky, FilterRefineSky, …) are exported for
benchmarks and tests that compare them directly.
"""

from repro.core.approx import approx_skyline, epsilon_dominates
from repro.core.api import (
    ALGORITHMS,
    group_centrality_maximize,
    neighborhood_candidates,
    neighborhood_skyline,
)
from repro.core.base_sky import base_sky
from repro.core.block_refine import filter_refine_block_sky
from repro.core.counters import SkylineCounters
from repro.core.cset import base_cset_sky
from repro.core.domination import (
    dominates,
    edge_constrained_dominates,
    edge_constrained_included,
    neighborhood_included,
    two_hop_neighbors,
)
from repro.core.filter_phase import filter_phase, scalar_filter_phase
from repro.core.filter_refine import filter_refine_sky
from repro.core.join_sky import lc_join_sky
from repro.core.layers import dominance_layers, layer_sets
from repro.core.naive import naive_skyline
from repro.core.result import SkylineResult
from repro.core.two_hop import base_two_hop_sky
from repro.core.verify import SkylineVerificationError, verify_skyline

__all__ = [
    "ALGORITHMS",
    "approx_skyline",
    "epsilon_dominates",
    "group_centrality_maximize",
    "neighborhood_candidates",
    "neighborhood_skyline",
    "base_sky",
    "SkylineCounters",
    "base_cset_sky",
    "dominates",
    "edge_constrained_dominates",
    "edge_constrained_included",
    "neighborhood_included",
    "two_hop_neighbors",
    "filter_phase",
    "scalar_filter_phase",
    "filter_refine_block_sky",
    "filter_refine_sky",
    "lc_join_sky",
    "dominance_layers",
    "layer_sets",
    "naive_skyline",
    "SkylineResult",
    "base_two_hop_sky",
    "SkylineVerificationError",
    "verify_skyline",
]
