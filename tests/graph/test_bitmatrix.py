"""Unit tests for the packed candidate adjacency matrix."""

import pytest
from hypothesis import given

from repro.errors import ParameterError
from repro.graph.adjacency import Graph
from repro.graph.bitmatrix import (
    HAVE_NUMPY,
    CandidateBitMatrix,
    matrix_words,
    words_for_vertices,
)
from repro.graph.karate import karate_club
from tests.conftest import graphs

pytestmark = pytest.mark.skipif(
    not HAVE_NUMPY, reason="bit matrices require numpy"
)


def test_words_for_vertices():
    assert words_for_vertices(0) == 0
    assert words_for_vertices(1) == 1
    assert words_for_vertices(64) == 1
    assert words_for_vertices(65) == 2
    with pytest.raises(ParameterError):
        words_for_vertices(-1)


def test_matrix_words():
    assert matrix_words(0, 100) == 0
    assert matrix_words(3, 65) == 6
    with pytest.raises(ParameterError):
        matrix_words(-1, 10)


@given(graphs(max_vertices=80))
def test_packed_bits_match_adjacency(g):
    verts = tuple(range(0, g.num_vertices, 2))
    m = CandidateBitMatrix.from_graph(g, verts)
    assert len(m) == len(verts)
    ints = m.int_rows()
    for u in verts:
        assert m.has_row(u)
        row = m.row(u)
        nbrs = set(g.neighbors(u))
        for x in range(g.num_vertices):
            bit = bool(row[x >> 6] & (1 << (x & 63)))
            assert bit == (x in nbrs)
            assert bool(ints[u] >> x & 1) == (x in nbrs)
        # No bits beyond n.
        assert ints[u] < (1 << g.num_vertices) if g.num_vertices else ints[u] == 0
    assert not m.has_row(g.num_vertices + 1)


def test_complement_rows_kill_via_vertex():
    g = karate_club()
    verts = tuple(range(g.num_vertices))
    m = CandidateBitMatrix.from_graph(g, verts)
    ints, comps = m.int_rows(), m.complement_int_rows()
    for u in verts:
        # comp is the bitwise complement: AND with the row is empty.
        assert ints[u] & comps[u] == 0
        for w in verts:
            # Subset test equivalence with the numpy helper.
            int_clean = (ints[u] & comps[w]) == 0
            np_clean = not m.subset_conflicts(u, w).any()
            assert int_clean == np_clean


def test_subset_conflicts_exclude():
    g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3)])
    m = CandidateBitMatrix.from_graph(g, (0, 1, 2, 3))
    # N(0) = {1,2}, N(2) = {0,1}: conflict is vertex 2 only.
    conflicts = m.subset_conflicts(0, 2)
    assert conflicts.any()
    assert not m.subset_conflicts(0, 2, exclude=2).any()


def test_empty_and_edgeless():
    empty = CandidateBitMatrix.from_graph(Graph.from_edges(0, []), ())
    assert len(empty) == 0
    assert empty.memory_words() == 0
    assert empty.int_rows() == {}

    edgeless = CandidateBitMatrix.from_graph(
        Graph.from_edges(5, []), (0, 4)
    )
    assert edgeless.int_rows() == {0: 0, 4: 0}
    assert not edgeless.subset_conflicts(0, 4).any()


def test_from_graph_requires_numpy(monkeypatch):
    import repro.graph.bitmatrix as bm

    monkeypatch.setattr(bm, "HAVE_NUMPY", False)
    with pytest.raises(ParameterError):
        bm.CandidateBitMatrix.from_graph(Graph.from_edges(2, [(0, 1)]), (0,))


def test_repr_mentions_shape():
    g = karate_club()
    m = CandidateBitMatrix.from_graph(g, (0, 1))
    assert "rows=2" in repr(m)
    assert f"n={g.num_vertices}" in repr(m)
