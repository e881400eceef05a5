"""Tests for the structural invariant auditor."""

import pytest

from repro.errors import GraphFormatError
from repro.graph.adjacency import Graph
from repro.graph.validation import validate_graph


def test_valid_graph_passes(karate):
    validate_graph(karate)  # must not raise


def test_empty_graph_passes():
    validate_graph(Graph.from_edges(0, []))


def _raw(indptr, indices):
    """Wrap CSR arrays as a Graph, trusted (to plant corruption)."""
    return Graph.from_arrays(indptr, indices)


def test_detects_asymmetry():
    g = _raw([0, 1, 1], [1])
    with pytest.raises(GraphFormatError, match="asymmetric"):
        validate_graph(g)


def test_detects_unsorted_rows():
    g = _raw([0, 2, 4, 6], [2, 1, 0, 2, 0, 1])
    with pytest.raises(GraphFormatError, match="sorted"):
        validate_graph(g)


def test_detects_duplicates_as_sort_violation():
    g = _raw([0, 2, 4], [1, 1, 0, 0])
    with pytest.raises(GraphFormatError, match="sorted"):
        validate_graph(g)


def test_detects_self_loop():
    g = _raw([0, 1], [0])
    with pytest.raises(GraphFormatError, match="self-loop"):
        validate_graph(g)


def test_detects_out_of_range_neighbor():
    g = _raw([0, 1], [5])
    with pytest.raises(GraphFormatError, match="out-of-range"):
        validate_graph(g)


def test_detects_edge_count_mismatch():
    # indptr starts past two stray entries: 4 stored, 2 in rows.
    g = _raw([2, 3, 4], [1, 1, 1, 0])
    with pytest.raises(GraphFormatError, match="mismatch"):
        validate_graph(g)
