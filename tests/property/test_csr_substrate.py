"""Differential suite for the CSR graph and its binary format.

One graph class stores every graph as two ``int32`` CSR arrays, however
it was built.  These tests pin that the constructors agree (equal,
hash-equal graphs with identical skylines and counters), that every
query agrees with a plain-Python reading of the arrays, that the
vectorized kernels reproduce their scalar references on random graphs
(both the uniform and the power-law regime, the latter exercising the
filter pretest's reject branch heavily) and on every registered
dataset, and that the binary on-disk format round-trips and rejects
corrupt files.
"""

from __future__ import annotations

import os
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.centrality import neisky_gc, neisky_gh
from repro.core import SkylineCounters, neighborhood_skyline
from repro.core.filter_phase import filter_phase, scalar_filter_phase
from repro.errors import GraphFormatError
from repro.graph.adjacency import Graph
from repro.graph.binfmt import (
    BINARY_MAGIC,
    BINARY_VERSION,
    is_binary_graph,
    read_binary_graph,
    write_binary_graph,
)
from repro.graph.builder import GraphBuilder
from repro.graph.generators import copying_power_law
from repro.graph.io import read_edge_list
from repro.graph.karate import karate_club
from repro.paths.bfs import bfs_distances, multi_source_distances
from repro.paths.csr import CSRTraversal
from repro.workloads import load, names

from tests.conftest import graphs, power_law_graphs
from tests.property.test_filter_vector import assert_one_path_counters

#: Edge sets built through every constructor: ``(n, edges)``.  The
#: largest vertex of each has an edge, so ``read_edge_list`` without
#: compaction sees all ``n`` vertices.
EDGE_SETS = {
    "karate": lambda: (34, list(karate_club().edges())),
    "isolated": lambda: (12, [(0, 11), (2, 5), (5, 11), (2, 11), (7, 9)]),
    "power_law": lambda: (
        300,
        list(copying_power_law(300, 2.5, 0.85, seed=5).edges()),
    ),
}


def _from_edges(n, edges, tmp_path):
    # Shuffled, with every other edge reversed.
    pairs = [(v, u) if i % 2 else (u, v) for i, (u, v) in enumerate(edges)]
    random.Random(n).shuffle(pairs)
    return Graph.from_edges(n, pairs)


def _builder(n, edges, tmp_path):
    builder = GraphBuilder(n)
    builder.add_edges(edges)
    builder.add_edges((v, u) for u, v in edges)  # repeats are ignored
    return builder.build()


def _induced_subgraph(n, edges, tmp_path):
    # The edge set at the even vertices of a supergraph whose odd
    # vertices form a path tied to every even one.
    extra = [(2 * u + 1, 2 * u + 3) for u in range(n - 1)]
    extra += [(2 * u, 2 * u + 1) for u in range(n)]
    supergraph = Graph.from_edges(
        2 * n, [(2 * u, 2 * v) for u, v in edges] + extra
    )
    sub, mapping = supergraph.induced_subgraph(range(0, 2 * n, 2))
    assert mapping == list(range(0, 2 * n, 2))
    return sub


def _read_edge_list(n, edges, tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("".join(f"{u} {v}\n" for u, v in edges))
    return read_edge_list(path, compact=False)


def _read_binary_graph(n, edges, tmp_path):
    path = tmp_path / "g.rsky"
    write_binary_graph(Graph.from_edges(n, edges), path)
    return read_binary_graph(path)


CONSTRUCTORS = {
    "from_edges": _from_edges,
    "builder": _builder,
    "induced_subgraph": _induced_subgraph,
    "read_edge_list": _read_edge_list,
    "read_binary_graph": _read_binary_graph,
}


def _skyline_run(graph, algorithm):
    counters = SkylineCounters()
    result = neighborhood_skyline(graph, algorithm, counters=counters)
    return result.skyline, result.candidates, result.dominator, counters


class TestConstructorsAgree:
    @pytest.mark.parametrize("edge_set", sorted(EDGE_SETS))
    @pytest.mark.parametrize("build", sorted(CONSTRUCTORS))
    def test_same_edges_same_graph(self, tmp_path, build, edge_set):
        """Every constructor gives one graph: equal, hash-equal, with the
        same skylines and counters on both the default kernel and the
        paper's Alg. 3 (``filter_pretest_rejects`` included)."""
        n, edges = EDGE_SETS[edge_set]()
        reference = Graph.from_edges(n, edges)
        g = CONSTRUCTORS[build](n, edges, tmp_path)
        assert type(g) is Graph
        assert g == reference and hash(g) == hash(reference)
        assert g.num_edges == len(edges)
        for algorithm in ("auto", "filter_refine"):
            got = _skyline_run(g, algorithm)
            want = _skyline_run(reference, algorithm)
            assert got == want
            if edges:
                assert "filter_pretest_rejects" in got[3].extra


class TestGraphProtocolEquivalence:
    @given(graphs(max_vertices=18))
    def test_protocol_queries_match(self, g):
        """Every query agrees with a plain-Python reading of the arrays."""
        indptr, indices = (a.tolist() for a in g.csr_arrays())
        n = len(indptr) - 1
        rows = [indices[indptr[u] : indptr[u + 1]] for u in range(n)]
        assert g.num_vertices == len(g) == n
        assert 2 * g.num_edges == len(indices)
        assert g.degrees() == [len(row) for row in rows]
        for u in range(n):
            assert g.degree(u) == len(rows[u])
            assert list(g.neighbors(u)) == rows[u]
            assert g.closed_neighborhood(u) == sorted(rows[u] + [u])
            for v in range(n):
                if u != v:
                    assert g.has_edge(u, v) == (v in rows[u])
        edges = list(g.edges())
        assert edges == [(u, v) for u in range(n) for v in rows[u] if u < v]
        assert all(type(u) is int and type(v) is int for u, v in edges)

    def test_neighbors_are_immutable(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        row = g.neighbors(1)
        with pytest.raises(TypeError):
            row[0] = 99
        indptr, indices = g.csr_arrays()
        with pytest.raises(ValueError):
            indices[0] = 9


class TestSkylineEquivalence:
    @settings(deadline=None)
    @given(power_law_graphs(max_vertices=48))
    def test_filter_phase_identical(self, g):
        """The vectorized filter phase against its scalar reference:
        candidates and dominators, and every counter against its
        one-path definition."""
        vector_counters = SkylineCounters()
        want = scalar_filter_phase(g)
        assert filter_phase(g, counters=vector_counters) == want
        assert_one_path_counters(g, want[0], vector_counters)
        if g.num_edges:
            assert "filter_pretest_rejects" in vector_counters.extra

    @settings(deadline=None)
    @given(power_law_graphs(max_vertices=40))
    def test_all_algorithms_identical(self, g):
        reference = neighborhood_skyline(g, algorithm="naive")
        for algorithm in ("filter_refine", "auto"):
            result = neighborhood_skyline(g, algorithm=algorithm)
            assert result.skyline == reference.skyline

    @pytest.mark.parametrize("name", names())
    def test_registered_datasets_identical(self, name):
        """Every registry dataset: the default kernel and the paper's
        Alg. 3 agree on skyline, candidates and dominators."""
        g = load(name)
        fast = neighborhood_skyline(g)
        paper = neighborhood_skyline(g, algorithm="filter_refine")
        assert fast.skyline == paper.skyline
        assert fast.dominator == paper.dominator
        assert fast.candidates == paper.candidates

    @settings(deadline=None)
    @given(graphs(max_vertices=14))
    def test_greedy_groups_identical(self, g):
        """The lazy greedy against the eager reference driver."""
        for run in (neisky_gc, neisky_gh):
            lazy = run(g, 3)
            eager = run(g, 3, strategy="eager")
            assert lazy.group == eager.group
            assert lazy.gains == eager.gains
            assert lazy.evaluations + lazy.evaluations_saved == (
                eager.evaluations
            )


class TestTraversalEquivalence:
    @given(graphs(max_vertices=16))
    def test_bfs_distances_match(self, g):
        if g.num_vertices == 0:
            return
        trav = CSRTraversal(g)
        for s in g.vertices():
            assert trav.bfs_distances(s) == bfs_distances(g, s)

    @given(graphs(max_vertices=16))
    def test_multi_source_matches(self, g):
        n = g.num_vertices
        trav = CSRTraversal(g)
        for sources in ([], list(range(0, n, 3)), list(range(n))):
            assert trav.multi_source_distances(
                sources
            ) == multi_source_distances(g, sources)

    def test_vectorized_and_scalar_kernels_agree(self, karate):
        trav = CSRTraversal(karate)
        for s in karate.vertices():
            assert trav.bfs_distances(s) == bfs_distances(karate, s)


class TestBinaryFormat:
    @settings(deadline=None, max_examples=25)
    @given(graphs(max_vertices=20))
    def test_round_trip_identity(self, tmp_path_factory, g):
        path = tmp_path_factory.mktemp("binfmt") / "g.rsky"
        write_binary_graph(g, path)
        assert is_binary_graph(path)
        loaded = read_binary_graph(path)
        assert loaded == g
        # The memmap-backed snapshot re-serializes to identical bytes.
        again = tmp_path_factory.mktemp("binfmt") / "h.rsky"
        write_binary_graph(loaded, again)
        assert path.read_bytes() == again.read_bytes()

    def test_truncated_file_rejected(self, tmp_path, karate):
        path = tmp_path / "k.rsky"
        write_binary_graph(karate, path)
        raw = path.read_bytes()
        for cut in (0, 3, 10, len(raw) - 1):
            path.write_bytes(raw[:cut])
            with pytest.raises(GraphFormatError):
                read_binary_graph(path)

    def test_bad_magic_rejected(self, tmp_path, karate):
        path = tmp_path / "k.rsky"
        write_binary_graph(karate, path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        assert not is_binary_graph(path)
        with pytest.raises(GraphFormatError, match="magic"):
            read_binary_graph(path)

    def test_unsupported_version_rejected(self, tmp_path, karate):
        path = tmp_path / "k.rsky"
        write_binary_graph(karate, path)
        raw = bytearray(path.read_bytes())
        raw[4:8] = struct.pack("<I", 99)
        path.write_bytes(bytes(raw))
        with pytest.raises(GraphFormatError, match="version"):
            read_binary_graph(path)

    def test_corrupt_indptr_rejected(self, tmp_path, karate):
        path = tmp_path / "k.rsky"
        write_binary_graph(karate, path)
        raw = bytearray(path.read_bytes())
        # First indptr entry must be 0; poison it.
        raw[24:28] = struct.pack("<i", 7)
        path.write_bytes(bytes(raw))
        with pytest.raises(GraphFormatError, match="corrupt"):
            read_binary_graph(path)

    def test_missing_file_reports_path(self, tmp_path):
        path = tmp_path / "absent.rsky"
        with pytest.raises(GraphFormatError, match="absent"):
            read_binary_graph(path)
        assert not is_binary_graph(path)

    def test_no_tmp_residue_after_write(self, tmp_path, karate):
        path = tmp_path / "k.rsky"
        write_binary_graph(karate, path)
        assert os.listdir(tmp_path) == ["k.rsky"]


def _crafted_rsky(path, n, indptr, indices, *, m=None, magic=BINARY_MAGIC):
    """Write a hand-made ``.rsky`` file (no validation on the way out)."""
    m = len(indices) // 2 if m is None else m
    header = struct.pack("<4sIQQ", magic, BINARY_VERSION, n, m)
    body = struct.pack(f"<{len(indptr)}i", *indptr)
    body += struct.pack(f"<{len(indices)}i", *indices)
    path.write_bytes(header + body)
    return path


#: A valid 4-vertex path 0-1-2-3 as raw CSR arrays.
_P4_INDPTR = [0, 1, 3, 5, 6]
_P4_INDICES = [1, 0, 2, 1, 3, 2]

#: A 4-vertex file whose rows are unsorted and whose adjacency is
#: asymmetric (row 0 lists 2 before 1; 1 lists 3 but 3 does not list 1).
_UNSORTED_INDPTR = [0, 2, 3, 5, 6]
_UNSORTED_INDICES = [2, 1, 3, 0, 3, 2]

#: The corrupt-file cases: (label, crafted kwargs, error match).
_CORRUPT_CASES = {
    "bad_magic": (dict(magic=b"NOPE"), "magic"),
    "lying_size": (dict(m=4), "declares"),
    "non_monotone_indptr": (
        dict(indptr=[0, 3, 1, 5, 6]),
        "indptr decreases at vertex 1",
    ),
    # A decrease whose int32 difference wraps around to a positive
    # value (-2e9 - 2e9 = +294,967,296 mod 2**32).
    "wrapping_indptr": (
        dict(indptr=[0, 2_000_000_000, -2_000_000_000, 5, 6]),
        r"indptr decreases at vertex 1 \(2000000000 > -2000000000\)",
    ),
    "out_of_range_index": (
        dict(indices=[1, 0, 2, 1, 7, 2]),
        r"neighbor index 7 at entry 4 is outside \[0, 4\)",
    ),
    "negative_index": (
        dict(indices=[1, 0, 2, 1, -3, 2]),
        r"neighbor index -3 at entry 4 is outside \[0, 4\)",
    ),
    "unsorted_row": (
        dict(indptr=_UNSORTED_INDPTR, indices=_UNSORTED_INDICES),
        r"row 0 is not strictly increasing at entry 1 \(2 then 1\)",
    ),
    "asymmetric_edge": (
        dict(indices=[1, 0, 2, 1, 3, 1]),
        r"edge \(2, 3\) has no reverse entry \(3, 2\)",
    ),
    "self_loop": (
        dict(indices=[1, 0, 2, 1, 2, 2]),
        "self-loop at vertex 2",
    ),
}


def _corrupt_file(tmp_path, case):
    kwargs, _match = _CORRUPT_CASES[case]
    arrays = dict(indptr=_P4_INDPTR, indices=_P4_INDICES)
    arrays.update(kwargs)
    return _crafted_rsky(tmp_path / f"{case}.rsky", 4, **arrays)


class TestHostileBinaryInput:
    def test_crafted_helper_writes_a_valid_graph(self, tmp_path):
        path = _crafted_rsky(tmp_path / "p4.rsky", 4, _P4_INDPTR, _P4_INDICES)
        g = read_binary_graph(path)
        assert g == Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])

    def test_out_of_range_index_rejected(self, tmp_path):
        with pytest.raises(GraphFormatError, match="outside"):
            read_binary_graph(_corrupt_file(tmp_path, "out_of_range_index"))

    def test_non_monotone_indptr_rejected(self, tmp_path):
        for case in ("non_monotone_indptr", "wrapping_indptr"):
            _kwargs, match = _CORRUPT_CASES[case]
            with pytest.raises(GraphFormatError, match=match):
                read_binary_graph(_corrupt_file(tmp_path, case))

    def test_negative_index_rejected(self, tmp_path):
        with pytest.raises(GraphFormatError, match="outside"):
            read_binary_graph(_corrupt_file(tmp_path, "negative_index"))

    @pytest.mark.parametrize(
        "case", ["unsorted_row", "asymmetric_edge", "self_loop"]
    )
    def test_row_order_and_symmetry_rejected(self, tmp_path, case):
        _kwargs, match = _CORRUPT_CASES[case]
        with pytest.raises(GraphFormatError, match=match):
            read_binary_graph(_corrupt_file(tmp_path, case))

    def test_unsorted_asymmetric_file_fails_verify_run(self, tmp_path, capsys):
        # This file used to pass `skyline --verify` ("verification
        # passed", |R| = 2): the verifier read the same broken rows.
        from repro.cli import main

        path = _crafted_rsky(
            tmp_path / "bad.rsky", 4, _UNSORTED_INDPTR, _UNSORTED_INDICES
        )
        assert main(["skyline", "--edge-list", str(path), "--verify"]) == 2
        err = capsys.readouterr().err
        assert "not strictly increasing" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("case", sorted(_CORRUPT_CASES))
    def test_cli_exits_2_with_one_line_error(self, tmp_path, capsys, case):
        from repro.cli import main

        path = _corrupt_file(tmp_path, case)
        assert main(["skyline", "--edge-list", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    @settings(deadline=None, max_examples=150)
    @given(st.data())
    def test_mutated_bytes_fail_cleanly_or_keep_invariants(
        self, tmp_path_factory, data
    ):
        import numpy as np

        path = tmp_path_factory.mktemp("mut") / "g.rsky"
        write_binary_graph(Graph.from_edges(
            5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)]
        ), path)
        raw = bytearray(path.read_bytes())
        for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
            pos = data.draw(st.integers(min_value=0, max_value=len(raw) - 1))
            raw[pos] = data.draw(st.integers(min_value=0, max_value=255))
        path.write_bytes(bytes(raw))
        try:
            g = read_binary_graph(path)
        except GraphFormatError:
            return
        indptr, indices = g.csr_arrays()
        n = g.num_vertices
        assert indptr[0] == 0 and indptr[n] == len(indices)
        assert (np.diff(indptr) >= 0).all()
        assert ((indices >= 0) & (indices < n)).all()
        edges = set()
        for u in range(n):
            row = indices[indptr[u] : indptr[u + 1]].tolist()
            assert row == sorted(set(row)), "row not strictly increasing"
            assert u not in row, "self-loop"
            edges.update((u, v) for v in row)
        assert all((v, u) in edges for u, v in edges), "asymmetric"
