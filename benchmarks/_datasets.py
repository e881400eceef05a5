"""Shared, cached benchmark instances and the skyline columns.

All benchmark modules draw their graphs from here so that (a) every
figure uses the same instances and (b) each graph is generated once per
session.  Figs. 3 and 4 draw their columns from
:data:`SKYLINE_ALGORITHMS`.  Three graph families:

* ``dataset(name)`` — the registry graphs as-is (skyline experiments).
* ``centrality_instance(name)`` — a connected, smaller instance for the
  group-centrality experiments.  The paper runs Greedy++/Greedy-H on the
  full graphs; at Python speed the greedy's first round alone is ``n``
  BFS traversals, so each dataset gets a dedicated ~800-vertex copying
  backbone with the same exponent flavor (the satellite periphery of
  the skyline instances shatters under vertex sampling, so these are
  generated directly rather than sampled).  The k-ladder is scaled
  correspondingly.
* ``scalability_instance(axis, fraction)`` — the Exp-7 LiveJournal
  subsamples along the ``n`` and ``ρ`` axes.

The lazy greedy memoizes each vertex's empty-group gain on the graph
object, so a timed lazy leg on a cached instance would time memo hits
left by an earlier leg; :func:`cold_copy` gives each leg its own object.
"""

from __future__ import annotations

from functools import lru_cache

from repro.core import (
    base_cset_sky,
    base_sky,
    base_two_hop_sky,
    filter_refine_sky,
    lc_join_sky,
)
from repro.core.block_refine import filter_refine_block_sky
from repro.graph.adjacency import Graph
from repro.graph.components import largest_connected_component
from repro.graph.sampling import sample_edges, sample_prefix, sample_vertices
from repro.workloads import load

#: The paper's five Exp-1 algorithms, FilterRefineSky being its bloom
#: Alg. 3, then the production kernel (``filter_refine_block``, the
#: ``"auto"`` default of ``neighborhood_skyline``).
SKYLINE_ALGORITHMS = (
    ("LC-Join", lc_join_sky),
    ("BaseSky", base_sky),
    ("Base2Hop", base_two_hop_sky),
    ("BaseCSet", base_cset_sky),
    ("FilterRefineSky", filter_refine_sky),
    ("FilterRefineSkyBlock", filter_refine_block_sky),
)

#: The k values used for Figs. 7/8 (the paper sweeps 50..300 on graphs
#: three orders of magnitude larger; the ladder keeps the same 6-point
#: geometry).
GROUP_K_VALUES = (4, 8, 12, 16, 20, 24)
GROUP_K_DEFAULT = 16

#: Exp-7 sampling fractions (the paper's 20%..100%).
SCALING_FRACTIONS = (0.2, 0.4, 0.6, 0.8, 1.0)

#: Copying-backbone parameters (exponent, copy_prob, seed) per dataset
#: for the ~800-vertex centrality instances.
_CENTRALITY_PARAMS = {
    "notredame_sim": (2.3, 0.90, 201),
    "youtube_sim": (2.4, 0.88, 202),
    "wikitalk_sim": (2.9, 0.93, 203),
    "flixster_sim": (2.6, 0.85, 204),
    "dblp_sim": (2.1, 0.80, 205),
    "livejournal_sim": (2.4, 0.85, 206),
}
_CENTRALITY_N = 900


def cold_copy(graph: Graph) -> Graph:
    """An equal graph object with no round-0 memo and no built rows.

    Zero-copy: the copy wraps the same CSR arrays.
    """
    return Graph.from_arrays(*graph.csr_arrays())


@lru_cache(maxsize=None)
def dataset(name: str) -> Graph:
    """The registry graph, cached for the benchmark session."""
    return load(name)


@lru_cache(maxsize=None)
def centrality_instance(name: str) -> Graph:
    """Connected ~800-vertex instance used by the group-centrality figures."""
    from repro.graph.generators import copying_power_law

    exponent, copy_prob, seed = _CENTRALITY_PARAMS[name]
    backbone = copying_power_law(
        _CENTRALITY_N, exponent, copy_prob, seed=seed
    )
    lcc, _mapping = largest_connected_component(backbone)
    return lcc


@lru_cache(maxsize=None)
def scalability_instance(axis: str, fraction: float) -> Graph:
    """LiveJournal subsample along ``axis`` ∈ {"n", "rho"} (Exp-7)."""
    base = dataset("livejournal_sim")
    if axis == "n":
        return sample_vertices(base, fraction, seed=7)
    if axis == "rho":
        return sample_edges(base, fraction, seed=7)
    raise ValueError(f"unknown scalability axis {axis!r}")


@lru_cache(maxsize=None)
def scalability_centrality_instance(axis: str, fraction: float) -> Graph:
    """Connected version of the Exp-7 subsamples for Figs. 11/12.

    The ``n`` axis uses ID-prefix sampling — for a growth-model backbone
    that is "the same graph, earlier in its growth", connected and
    nested.  The ``ρ`` axis edge-samples and takes the LCC (at low ρ the
    component shrinks; the report notes it).
    """
    small = centrality_instance("livejournal_sim")
    if axis == "n":
        sampled = sample_prefix(small, fraction)
    elif axis == "rho":
        sampled = sample_edges(small, fraction, seed=13)
    else:
        raise ValueError(f"unknown scalability axis {axis!r}")
    lcc, _mapping = largest_connected_component(sampled)
    return lcc
