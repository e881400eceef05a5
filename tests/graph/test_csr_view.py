"""Tests for the memoized CSR snapshot of the list-backed graph.

:meth:`Graph.to_csr` returns the *same* array pair on every call (the
kernels that read it never rebuild it), and :meth:`Graph.from_csr`
restores an equal graph from it.
"""

from __future__ import annotations

from array import array

from hypothesis import given

from repro.graph.adjacency import Graph

from tests.conftest import graphs


class TestToCsrMemoization:
    def test_same_object_on_repeat_calls(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        first = g.to_csr()
        assert g.to_csr() is first
        assert g.to_csr()[0] is first[0]
        assert g.to_csr()[1] is first[1]

    def test_snapshot_is_typed_and_roundtrips(self):
        g = Graph.from_edges(5, [(0, 2), (0, 4), (1, 3), (2, 4)])
        indptr, indices = g.to_csr()
        assert isinstance(indptr, array) and indptr.typecode == "q"
        assert isinstance(indices, array) and indices.typecode == "q"
        assert Graph.from_csr(indptr, indices) == g

    def test_empty_graph(self):
        g = Graph.from_edges(0, [])
        indptr, indices = g.to_csr()
        assert list(indptr) == [0]
        assert len(indices) == 0
        assert g.to_csr() is g.to_csr()

    @given(graphs(max_vertices=16))
    def test_memoized_snapshot_equals_fresh_rebuild(self, g):
        snap = g.to_csr()
        assert g.to_csr() is snap
        assert Graph.from_csr(*snap) == g


