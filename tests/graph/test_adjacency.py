"""Tests for the core Graph representation."""

import numpy as np
import pytest
from hypothesis import given

from repro.errors import GraphFormatError
from repro.graph.adjacency import Graph

from tests.conftest import graphs


class TestConstruction:
    def test_empty_graph(self):
        g = Graph.from_edges(0, [])
        assert g.num_vertices == 0
        assert g.num_edges == 0
        assert list(g.edges()) == []

    def test_vertices_without_edges(self):
        g = Graph.from_edges(4, [])
        assert g.num_vertices == 4
        assert all(g.degree(u) == 0 for u in g.vertices())

    def test_single_edge(self):
        g = Graph.from_edges(2, [(0, 1)])
        assert g.num_edges == 1
        assert g.has_edge(0, 1)
        assert g.has_edge(1, 0)

    def test_neighbors_are_sorted(self):
        g = Graph.from_edges(5, [(3, 0), (3, 4), (3, 1), (3, 2)])
        assert list(g.neighbors(3)) == [0, 1, 2, 4]

    def test_rejects_self_loop(self):
        with pytest.raises(GraphFormatError, match="self-loop"):
            Graph.from_edges(3, [(1, 1)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(GraphFormatError, match="duplicate"):
            Graph.from_edges(3, [(0, 1), (0, 1)])

    def test_rejects_duplicate_edge_reversed(self):
        with pytest.raises(GraphFormatError, match="duplicate"):
            Graph.from_edges(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphFormatError, match="out of range"):
            Graph.from_edges(2, [(0, 5)])

    @pytest.mark.parametrize(
        "n, edges, message",
        [
            (4, [(0, 1), (2, 3), (1, 0)], "duplicate edge (0, 1)"),
            (5, [(3, 4), (2, 4), (4, 3), (1, 2), (2, 1)], "duplicate edge (1, 2)"),
            (5, [(4, 2), (2, 4), (0, 3), (3, 0)], "duplicate edge (0, 3)"),
            (3, [(0, 1), (1, 1), (0, 5)], "self-loop at vertex 1"),
            (3, [(0, 1), (0, 5), (1, 1)], "edge (0, 5) out of range for n=3"),
            (3, [(0, 1), (-1, 2)], "edge (-1, 2) out of range for n=3"),
            (3, [(2, 2), (0, 1), (0, 1)], "self-loop at vertex 2"),
            (3, [(0, 1), (0, 1), (0, 3)], "edge (0, 3) out of range for n=3"),
            (-1, [], "vertex count must be >= 0, got -1"),
        ],
    )
    def test_error_names_the_first_offending_edge(self, n, edges, message):
        """Loops and ranges are checked in input order, duplicates after
        them, the smallest duplicated ``(u, v)`` first."""
        with pytest.raises(GraphFormatError) as info:
            Graph.from_edges(n, edges)
        assert str(info.value) == message

    def test_rejects_negative_vertex_count(self):
        with pytest.raises(GraphFormatError):
            Graph.from_edges(-1, [])


class TestQueries:
    def test_degree(self, triangle):
        assert [triangle.degree(u) for u in range(3)] == [2, 2, 2]

    def test_len_is_vertex_count(self, k5):
        assert len(k5) == 5

    def test_has_edge_absent(self, p6):
        assert not p6.has_edge(0, 5)
        assert not p6.has_edge(0, 2)

    def test_has_edge_checks_smaller_list(self, star7):
        # Center has degree 6; leaves have degree 1.
        assert star7.has_edge(0, 3)
        assert not star7.has_edge(1, 2)

    def test_closed_neighborhood_contains_self(self, triangle):
        assert triangle.closed_neighborhood(1) == [0, 1, 2]

    def test_closed_neighborhood_sorted_when_self_is_extreme(self, p6):
        assert p6.closed_neighborhood(0) == [0, 1]
        assert p6.closed_neighborhood(5) == [4, 5]

    def test_closed_neighborhood_is_a_copy(self, triangle):
        closed = triangle.closed_neighborhood(0)
        closed.append(99)
        assert triangle.closed_neighborhood(0) == [0, 1, 2]

    def test_edges_yields_each_once(self, k5):
        edges = list(k5.edges())
        assert len(edges) == 10
        assert all(u < v for u, v in edges)
        assert len(set(edges)) == 10

    def test_vertices_range(self, p6):
        assert list(p6.vertices()) == [0, 1, 2, 3, 4, 5]


class TestInducedSubgraph:
    def test_keeps_internal_edges(self, k5):
        sub, mapping = k5.induced_subgraph([0, 2, 4])
        assert sub.num_vertices == 3
        assert sub.num_edges == 3  # triangle
        assert mapping == [0, 2, 4]

    def test_drops_external_edges(self, p6):
        sub, mapping = p6.induced_subgraph([0, 2, 4])
        assert sub.num_edges == 0

    def test_relabels_in_sorted_order(self, p6):
        sub, mapping = p6.induced_subgraph([5, 1, 3, 2])
        assert mapping == [1, 2, 3, 5]
        # Edges 1-2 and 2-3 survive under new labels 0-1, 1-2.
        assert sub.has_edge(0, 1)
        assert sub.has_edge(1, 2)
        assert not sub.has_edge(2, 3)

    def test_duplicate_input_vertices_collapse(self, triangle):
        sub, mapping = triangle.induced_subgraph([0, 0, 1])
        assert sub.num_vertices == 2
        assert sub.num_edges == 1

    def test_out_of_range_vertex_rejected(self, triangle):
        with pytest.raises(GraphFormatError):
            triangle.induced_subgraph([0, 7])

    def test_empty_selection(self, triangle):
        sub, mapping = triangle.induced_subgraph([])
        assert sub.num_vertices == 0
        assert mapping == []


class TestDunder:
    def test_equality(self):
        a = Graph.from_edges(3, [(0, 1)])
        b = Graph.from_edges(3, [(0, 1)])
        c = Graph.from_edges(3, [(0, 2)])
        assert a == b
        assert a != c
        assert Graph.from_edges(3, []) != Graph.from_edges(4, [])

    def test_equality_with_non_graph(self):
        assert Graph.from_edges(1, []) != "not a graph"

    def test_hash_consistent_with_equality(self):
        a = Graph.from_edges(3, [(0, 1)])
        b = Graph.from_edges(3, [(0, 1)])
        assert hash(a) == hash(b)

    def test_equality_and_hash_build_no_rows(self, karate):
        copy = Graph.from_arrays(*karate.csr_arrays())
        assert copy == karate and hash(copy) == hash(karate)
        assert copy._rows == [None] * copy.num_vertices

    def test_repr_mentions_sizes(self, k5):
        assert "n=5" in repr(k5)
        assert "m=10" in repr(k5)


class TestCSR:
    def test_roundtrip_identity(self, karate):
        indptr, indices = karate.csr_arrays()
        rebuilt = Graph.from_arrays(indptr, indices)
        assert rebuilt == karate
        assert rebuilt.num_edges == karate.num_edges

    def test_arrays_are_readonly_int32(self, k5):
        indptr, indices = k5.csr_arrays()
        assert indptr.dtype == np.int32 and indices.dtype == np.int32
        assert not indptr.flags.writeable
        assert not indices.flags.writeable
        assert len(indptr) == k5.num_vertices + 1
        assert len(indices) == 2 * k5.num_edges

    def test_same_arrays_on_repeat_calls(self, c6):
        indptr, indices = c6.csr_arrays()
        again = c6.csr_arrays()
        assert again[0] is indptr and again[1] is indices
        # A wrapped copy shares the buffers, not the built rows.
        copy = Graph.from_arrays(indptr, indices)
        assert copy.csr_arrays()[1].base is indices.base
        assert copy._rows is not c6._rows

    def test_rows_are_sorted_slices(self, c6):
        indptr, indices = c6.csr_arrays()
        for u in c6.vertices():
            row = indices[indptr[u] : indptr[u + 1]].tolist()
            assert row == list(c6.neighbors(u))

    def test_empty_graph(self):
        g = Graph.from_edges(0, [])
        indptr, indices = g.csr_arrays()
        assert indptr.tolist() == [0]
        assert len(indices) == 0
        assert Graph.from_arrays(indptr, indices) == g

    def test_isolated_vertices_survive(self):
        g = Graph.from_edges(4, [(1, 2)])
        rebuilt = Graph.from_arrays(*g.csr_arrays())
        assert rebuilt == g
        assert rebuilt.num_vertices == 4
        assert rebuilt.degree(0) == 0

    def test_pickle_roundtrip_via_csr(self, karate):
        import pickle

        payload = pickle.dumps(karate.csr_arrays())
        rebuilt = Graph.from_arrays(*pickle.loads(payload))
        assert rebuilt == karate

    def test_from_arrays_rejects_mismatched_lengths(self):
        with pytest.raises(GraphFormatError, match="indptr ends at 2"):
            Graph.from_arrays([0, 1, 2], [1])
        with pytest.raises(GraphFormatError, match="at least 1 entry"):
            Graph.from_arrays([], [])

    @given(graphs(max_vertices=16))
    def test_roundtrip_on_random_graphs(self, g):
        rebuilt = Graph.from_arrays(*g.csr_arrays())
        assert rebuilt == g
        assert hash(rebuilt) == hash(g)
        assert sorted(rebuilt.edges()) == sorted(g.edges())
