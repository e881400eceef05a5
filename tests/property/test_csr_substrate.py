"""Differential suite: the numpy CSR substrate vs the list-backed graph.

The tentpole invariant of the CSR substrate is *bit-for-bit
equivalence*: every algorithm must produce identical output on a
:class:`CSRGraph` and on the list-backed :class:`Graph` it was built
from — same skylines, same dominator arrays, same counters where the
code path is shared, same greedy groups, same BFS distances.  These
tests pin that invariant on random graphs (both the uniform and the
power-law regime, the latter exercising the filter pretest's reject
branch heavily) and pin the binary on-disk format's round-trip and
corruption behavior.
"""

from __future__ import annotations

import os
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.centrality import neisky_gc, neisky_gh
from repro.core import SkylineCounters, neighborhood_skyline
from repro.core.filter_phase import filter_phase
from repro.errors import GraphFormatError
from repro.graph.adjacency import Graph
from repro.graph.binfmt import (
    BINARY_MAGIC,
    BINARY_VERSION,
    is_binary_graph,
    read_binary_graph,
    write_binary_graph,
)
from repro.graph.csr import CSRGraph, as_csr
from repro.paths.bfs import bfs_distances, multi_source_distances
from repro.paths.csr import CSRTraversal
from repro.workloads import load, names

from tests.conftest import graphs, power_law_graphs

class TestGraphProtocolEquivalence:
    @given(graphs(max_vertices=18))
    def test_protocol_queries_match(self, g):
        csr = CSRGraph.from_graph(g)
        assert csr.num_vertices == g.num_vertices
        assert csr.num_edges == g.num_edges
        assert csr.degrees() == g.degrees()
        for u in g.vertices():
            assert csr.degree(u) == g.degree(u)
            assert tuple(csr.neighbors(u)) == tuple(g.neighbors(u))
            assert csr.closed_neighborhood(u) == g.closed_neighborhood(u)
        for u in g.vertices():
            for v in g.vertices():
                if u != v:
                    assert csr.has_edge(u, v) == g.has_edge(u, v)
        assert csr == g
        assert sorted(csr.edges()) == sorted(g.edges())

    @given(graphs(max_vertices=16))
    def test_to_csr_is_zero_copy(self, g):
        csr = CSRGraph.from_graph(g)
        indptr, indices = csr.csr_arrays()
        snap = csr.to_csr()
        assert snap[0] is indptr
        assert snap[1] is indices
        assert not indptr.flags.writeable
        assert not indices.flags.writeable

    def test_neighbors_are_immutable(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        csr = CSRGraph.from_graph(g)
        row = csr.neighbors(1)
        with pytest.raises(TypeError):
            row[0] = 99
        # The list path hands out tuples too.
        with pytest.raises(TypeError):
            g.neighbors(1)[0] = 99

    def test_neighbors_array_is_readonly_slice(self):
        g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        csr = CSRGraph.from_graph(g)
        row = csr.neighbors_array(0)
        assert row.tolist() == [1, 2, 3]
        with pytest.raises(ValueError):
            row[0] = 9


class TestSkylineEquivalence:
    @settings(deadline=None)
    @given(power_law_graphs(max_vertices=48))
    def test_filter_phase_identical(self, g):
        csr = CSRGraph.from_graph(g)
        list_counters = SkylineCounters()
        csr_counters = SkylineCounters()
        cand_list, dom_list = filter_phase(g, counters=list_counters)
        cand_csr, dom_csr = filter_phase(csr, counters=csr_counters)
        assert cand_list == cand_csr
        assert dom_list == dom_csr
        # The pretest may skip exact merges but never changes decisions:
        # degree skips fire before it, so that counter stays shared.
        assert list_counters.degree_skips == csr_counters.degree_skips
        assert (
            list_counters.dominations_found == csr_counters.dominations_found
        )
        rejects = csr_counters.extra.get("filter_pretest_rejects", 0)
        assert (
            csr_counters.pair_tests + rejects == list_counters.pair_tests
        )

    @settings(deadline=None)
    @given(power_law_graphs(max_vertices=40))
    def test_all_algorithms_identical(self, g):
        csr = CSRGraph.from_graph(g)
        for algorithm in ("filter_refine", "auto"):
            r_list = neighborhood_skyline(g, algorithm=algorithm)
            r_csr = neighborhood_skyline(csr, algorithm=algorithm)
            assert r_list.skyline == r_csr.skyline
            assert r_list.dominator == r_csr.dominator
            assert r_list.candidates == r_csr.candidates

    @pytest.mark.parametrize("name", names())
    def test_registered_datasets_identical(self, name):
        """The acceptance bar: every registry dataset, both backends."""
        csr = load(name)
        assert isinstance(csr, CSRGraph)
        listg = Graph.from_edges(csr.num_vertices, csr.edges())
        r_list = neighborhood_skyline(listg)
        r_csr = neighborhood_skyline(csr)
        assert r_list.skyline == r_csr.skyline
        assert r_list.dominator == r_csr.dominator
        assert r_list.candidates == r_csr.candidates

    @settings(deadline=None)
    @given(graphs(max_vertices=14))
    def test_greedy_groups_identical(self, g):
        csr = CSRGraph.from_graph(g)
        for run in (neisky_gc, neisky_gh):
            r_list = run(g, 3)
            r_csr = run(csr, 3)
            assert r_list.group == r_csr.group
            assert r_list.gains == r_csr.gains
            assert r_list.evaluations == r_csr.evaluations


class TestTraversalEquivalence:
    @given(graphs(max_vertices=16))
    def test_bfs_distances_match(self, g):
        if g.num_vertices == 0:
            return
        trav = CSRTraversal.from_graph(as_csr(g))
        for s in g.vertices():
            assert trav.bfs_distances(s) == bfs_distances(g, s)

    @given(graphs(max_vertices=16))
    def test_multi_source_matches(self, g):
        n = g.num_vertices
        trav = CSRTraversal.from_graph(as_csr(g))
        for sources in ([], list(range(0, n, 3)), list(range(n))):
            assert trav.multi_source_distances(
                sources
            ) == multi_source_distances(g, sources)

    def test_vectorized_and_scalar_kernels_agree(self, karate):
        trav = CSRTraversal.from_graph(as_csr(karate))
        assert trav._nd_indptr is not None
        for s in karate.vertices():
            assert trav.bfs_distances(s) == trav._scalar_distances((s,))


class TestBinaryFormat:
    @settings(deadline=None, max_examples=25)
    @given(graphs(max_vertices=20))
    def test_round_trip_identity(self, tmp_path_factory, g):
        path = tmp_path_factory.mktemp("binfmt") / "g.rsky"
        write_binary_graph(g, path)
        assert is_binary_graph(path)
        loaded = read_binary_graph(path)
        assert isinstance(loaded, CSRGraph)
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
        with pytest.raises(GraphFormatError, match="indptr decreases"):
            read_binary_graph(_corrupt_file(tmp_path, "non_monotone_indptr"))

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
