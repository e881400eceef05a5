"""Tests for the full BFS of :mod:`repro.paths.csr`.

``bfs_distances`` and ``multi_source_distances`` are checked against
networkx on karate, on disconnected graphs and on the degenerate graphs
(no vertices, one vertex), and for empty and duplicate source sets.
"""

import networkx as nx
import pytest

from repro.graph.adjacency import Graph
from repro.paths import bfs_distances as exported_bfs_distances
from repro.paths.csr import UNREACHED, bfs_distances, multi_source_distances


def nx_graph(graph):
    G = nx.Graph()
    G.add_nodes_from(graph.vertices())
    G.add_edges_from(graph.edges())
    return G


def nx_distances(graph, sources):
    """networkx's ``d(v, S)`` as a list, ``-1`` for unreachable."""
    dist = [UNREACHED] * graph.num_vertices
    if sources:
        found = nx.multi_source_dijkstra_path_length(
            nx_graph(graph), set(sources)
        )
        for v, d in found.items():
            dist[v] = d
    return dist


class TestBfsDistances:
    def test_path_distances(self, p6):
        assert bfs_distances(p6, 0) == [0, 1, 2, 3, 4, 5]

    def test_cycle_distances(self, c6):
        assert bfs_distances(c6, 0) == [0, 1, 2, 3, 2, 1]

    def test_unreachable_marked(self, disconnected):
        dist = bfs_distances(disconnected, 0)
        assert dist[0] == 0
        assert dist[3] == UNREACHED == -1
        assert dist[8] == UNREACHED

    def test_matches_networkx(self, karate):
        for src in karate.vertices():
            assert bfs_distances(karate, src) == nx_distances(karate, [src])

    def test_disconnected_matches_networkx(self, disconnected):
        for src in disconnected.vertices():
            assert bfs_distances(disconnected, src) == nx_distances(
                disconnected, [src]
            )

    def test_package_exports_the_same_function(self):
        assert exported_bfs_distances is bfs_distances


class TestMultiSource:
    def test_single_source_equivalence(self, karate):
        assert multi_source_distances(karate, [5]) == bfs_distances(karate, 5)

    def test_min_over_sources(self, p6):
        dist = multi_source_distances(p6, [0, 5])
        assert dist == [0, 1, 2, 2, 1, 0]

    def test_empty_sources(self, p6):
        assert multi_source_distances(p6, []) == [-1] * 6

    def test_duplicate_sources_ok(self, p6):
        assert multi_source_distances(p6, [2, 2]) == bfs_distances(p6, 2)

    def test_agrees_with_per_source_min(self, karate):
        group = [0, 33, 16]
        combined = multi_source_distances(karate, group)
        per_source = [bfs_distances(karate, s) for s in group]
        for v in karate.vertices():
            assert combined[v] == min(d[v] for d in per_source)

    @pytest.mark.parametrize(
        "sources", [[5], [0, 33], [0, 16, 33], [3, 3, 8], []]
    )
    def test_matches_networkx(self, karate, disconnected, sources):
        for graph in (karate, disconnected):
            inside = [s for s in sources if s < graph.num_vertices]
            assert multi_source_distances(graph, inside) == nx_distances(
                graph, inside
            )


class TestEccentricity:
    """A vertex's eccentricity is the largest finite entry of its BFS
    row (what :func:`repro.graph.metrics.approximate_diameter` reads)."""

    def test_path_endpoint(self, p6):
        assert max(bfs_distances(p6, 0)) == 5

    def test_path_middle(self, p6):
        assert bfs_distances(p6, 2) == [2, 1, 0, 1, 2, 3]

    def test_lonely_vertex(self):
        assert bfs_distances(Graph.from_edges(1, []), 0) == [0]
        assert multi_source_distances(Graph.from_edges(1, []), [0]) == [0]


class TestDistanceHelpers:
    """``d(u, v)``, ``d(u, S)`` and the distance profile of a set, read
    off the BFS rows with ``-1`` for infinity."""

    def test_distance(self, p6):
        assert bfs_distances(p6, 0)[4] == 4

    def test_distance_infinite(self, disconnected):
        assert bfs_distances(disconnected, 0)[3] == UNREACHED

    def test_set_distance(self, p6):
        assert multi_source_distances(p6, [0, 5])[3] == 2

    def test_set_distance_empty_group(self, p6):
        assert multi_source_distances(p6, [])[3] == UNREACHED

    def test_profile(self, p6):
        assert multi_source_distances(p6, [0]) == [0, 1, 2, 3, 4, 5]

    def test_profile_with_inf(self, disconnected):
        profile = multi_source_distances(disconnected, [0])
        assert profile == [0, 1, 1] + [UNREACHED] * 6

    def test_no_vertices(self):
        empty = Graph.from_edges(0, [])
        assert multi_source_distances(empty, []) == []


@pytest.mark.parametrize("n", [0, 1])
def test_degenerate_graphs_match_networkx(n):
    g = Graph.from_edges(n, [])
    for sources in ([], list(range(n)), list(range(n)) * 2):
        assert multi_source_distances(g, sources) == nx_distances(g, sources)
    for src in g.vertices():
        assert bfs_distances(g, src) == nx_distances(g, [src])
