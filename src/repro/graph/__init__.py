"""Graph substrate: representation, construction, IO, generation, sampling.

Public surface:

* :class:`~repro.graph.adjacency.Graph` — immutable simple undirected graph.
* :class:`~repro.graph.builder.GraphBuilder` — incremental construction.
* :mod:`~repro.graph.io` — edge-list / KONECT parsing.
* :mod:`~repro.graph.generators` — ER, Chung–Lu power-law, BA and the
  special graphs of the paper's Fig. 2.
* :mod:`~repro.graph.components` / :mod:`~repro.graph.sampling` /
  :mod:`~repro.graph.stats` — component extraction, Exp-7 subsampling,
  Table I statistics.
"""

from repro.graph.adjacency import Graph
from repro.graph.builder import GraphBuilder
from repro.graph.components import (
    connected_components,
    is_connected,
    largest_connected_component,
)
from repro.graph.generators import (
    barabasi_albert,
    chung_lu_power_law,
    complete_binary_tree,
    complete_graph,
    cycle_graph,
    empty_graph,
    erdos_renyi,
    path_graph,
    star_graph,
)
from repro.graph.io import read_edge_list, read_konect, write_edge_list
from repro.graph.karate import karate_club
from repro.graph.metrics import (
    approximate_diameter,
    average_local_clustering,
    degree_assortativity,
    global_clustering,
    triangle_count,
    triangles_per_vertex,
)
from repro.graph.sampling import sample_edges, sample_prefix, sample_vertices
from repro.graph.stats import GraphStats, degree_histogram, graph_stats
from repro.graph.threshold import (
    creation_sequence,
    is_threshold_graph,
    threshold_graph,
)
from repro.graph.validation import validate_graph

__all__ = [
    "Graph",
    "GraphBuilder",
    "connected_components",
    "is_connected",
    "largest_connected_component",
    "barabasi_albert",
    "chung_lu_power_law",
    "complete_binary_tree",
    "complete_graph",
    "cycle_graph",
    "empty_graph",
    "erdos_renyi",
    "path_graph",
    "star_graph",
    "read_edge_list",
    "read_konect",
    "write_edge_list",
    "karate_club",
    "approximate_diameter",
    "average_local_clustering",
    "degree_assortativity",
    "global_clustering",
    "triangle_count",
    "triangles_per_vertex",
    "sample_edges",
    "sample_prefix",
    "sample_vertices",
    "GraphStats",
    "creation_sequence",
    "is_threshold_graph",
    "threshold_graph",
    "degree_histogram",
    "graph_stats",
    "validate_graph",
]
