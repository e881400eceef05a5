"""Tests for the flat-array CSR BFS kernels.

:class:`~repro.paths.csr.CSRTraversal` re-implements the list-based
kernels of :mod:`repro.paths.bfs` and :mod:`repro.paths.truncated` over
preallocated scratch buffers; every test here is an equivalence check
against those references, because the lazy greedy engine's exactness
proof leans on the kernels being *identical*, not just correct.
"""

import numpy as np
import pytest

from repro.centrality.group_closeness_max import ClosenessObjective
from repro.centrality.group_harmonic_max import HarmonicObjective
from repro.graph.adjacency import Graph
from repro.paths.bfs import bfs_distances, multi_source_distances
from repro.paths.csr import CSRTraversal
from repro.paths.truncated import improvements


def dist_after(graph, group):
    """The eager driver's distance vector ``d(v, S)`` for group ``S``
    (``-1`` for unreachable)."""
    if not group:
        return [-1] * graph.num_vertices
    return multi_source_distances(graph, group)


def scan_dist(current):
    """``current`` in the scalar scan's convention: ``n`` for
    unreachable instead of ``-1``."""
    n = len(current)
    return [n if d == -1 else d for d in current]


def restored_eval(trav, source, current, current_nd, objective, collect,
                  budget):
    """One ``adaptive_eval`` on the scan's view of ``current``, asserting
    the scan hands its distance list back exactly as it found it."""
    dist = scan_dist(current)
    before = list(dist)
    result = trav.adaptive_eval(
        source, dist, current_nd, objective, collect, budget=budget
    )
    assert dist == before
    return result


def scalar_eval(trav, source, current, objective, collect=True):
    """The scalar kernel: ``adaptive_eval`` with no edge budget, which
    never hands off, so the vector view of ``current`` is never read."""
    return restored_eval(trav, source, current, None, objective, collect, -1)


class StreamRecorder:
    """A generic objective (no ``csr_kernel`` tag) that records the
    ``(old, new)`` stream it is fed and weighs every term 0."""

    name = "stream-recorder"

    def __init__(self):
        self.stream = []

    def gain_weight(self, old, new):
        self.stream.append((old, new))
        return 0.0


def scan_improvements(trav, source, current, budget=-1):
    """The ``(v, old, new)`` stream of one ``adaptive_eval`` scan, for a
    ``current`` with ``-1`` for unreachable (as the stream reports it).

    The recorder sees the ``(old, new)`` terms in the order the fold
    consumes them, and ``collect=True`` returns the ``(v, new)`` updates
    in emission order.  The default ``budget=-1`` keeps the scan on the
    scalar scan; ``budget=0`` hands every scan that visits an edge
    to the vector scan.
    """
    recorder = StreamRecorder()
    current_nd = None if budget < 0 else np.array(current, dtype=np.int32)
    _gain, updates = restored_eval(
        trav, source, current, current_nd, recorder, True, budget
    )
    assert len(updates) == len(recorder.stream)
    out = []
    for (v, new), (old, new_seen) in zip(updates, recorder.stream):
        assert new == new_seen
        out.append((v, old, new))
    return out


class TestFullBfs:
    def test_path(self, p6):
        trav = CSRTraversal(p6)
        assert trav.bfs_distances(0) == bfs_distances(p6, 0)

    def test_every_source_matches(self, karate):
        trav = CSRTraversal(karate)
        for src in karate.vertices():
            assert trav.bfs_distances(src) == bfs_distances(karate, src)

    def test_disconnected_marks_unreachable(self, disconnected):
        trav = CSRTraversal(disconnected)
        for src in disconnected.vertices():
            assert trav.bfs_distances(src) == bfs_distances(
                disconnected, src
            )

    def test_multi_source(self, karate):
        trav = CSRTraversal(karate)
        for sources in ([5], [0, 33], [0, 16, 33], []):
            assert trav.multi_source_distances(
                sources
            ) == multi_source_distances(karate, sources)

    def test_multi_source_duplicates(self, p6):
        trav = CSRTraversal(p6)
        assert trav.multi_source_distances([2, 2]) == bfs_distances(p6, 2)

    def test_buffer_reuse_across_calls(self, karate):
        # The queue buffer is shared state; interleaving full and
        # truncated traversals must not leak between calls.
        trav = CSRTraversal(karate)
        first = trav.bfs_distances(0)
        n = karate.num_vertices
        dist = [n] * n
        trav.adaptive_eval(33, dist, None, HarmonicObjective(), budget=-1)
        assert dist == [n] * n
        trav.multi_source_distances([1, 2])
        assert trav.bfs_distances(0) == first


class TestImprovements:
    @pytest.mark.parametrize("group", [[], [0], [0, 33], [5, 11, 20]])
    def test_matches_generator_kernel(self, karate, group):
        trav = CSRTraversal(karate)
        current = dist_after(karate, group)
        for u in karate.vertices():
            expected = list(improvements(karate, u, current))
            assert scan_improvements(trav, u, current) == expected

    def test_source_in_group_empty(self, karate):
        trav = CSRTraversal(karate)
        current = dist_after(karate, [7])
        # scan_improvements asserts the distance list comes back intact.
        assert scan_improvements(trav, 7, current) == []

    def test_disconnected_components(self, disconnected):
        trav = CSRTraversal(disconnected)
        for group in ([], [0], [0, 3]):
            current = dist_after(disconnected, group)
            for u in disconnected.vertices():
                expected = list(improvements(disconnected, u, current))
                assert scan_improvements(trav, u, current) == expected

    def test_scratch_reset_between_sources(self, karate):
        trav = CSRTraversal(karate)
        current = [-1] * karate.num_vertices
        # Same source twice: a distance list left lowered would prune
        # the second call down to nothing.
        first = scan_improvements(trav, 0, current)
        assert scan_improvements(trav, 0, current) == first


class TestEvaluators:
    def objective_cases(self, graph):
        return [
            ("closeness", ClosenessObjective(graph)),
            ("harmonic", HarmonicObjective()),
        ]

    @pytest.mark.parametrize("group", [[], [0], [0, 33, 5]])
    def test_gain_matches_weight_sum(self, karate, group):
        trav = CSRTraversal(karate)
        current = dist_after(karate, group)
        for _name, objective in self.objective_cases(karate):
            weight = objective.gain_weight
            for u in karate.vertices():
                expected_gain = 0.0
                expected_updates = []
                for v, old, new in improvements(karate, u, current):
                    expected_gain += weight(old, new)
                    expected_updates.append((v, new))
                gain, updates = scalar_eval(trav, u, current, objective)
                assert gain == expected_gain  # bitwise, not approx
                assert updates == expected_updates

    def test_collect_false_same_gain(self, karate):
        trav = CSRTraversal(karate)
        current = [-1] * karate.num_vertices
        for _name, objective in self.objective_cases(karate):
            for u in (0, 16, 33):
                gain_c, updates = scalar_eval(trav, u, current, objective)
                gain_n, none = scalar_eval(
                    trav, u, current, objective, False
                )
                assert gain_n == gain_c
                assert none is None
                assert updates

    def test_generic_fallback_kernel(self, p6):
        class WeirdObjective:
            """A gain objective with no specialized CSR kernel."""

            name = "weird"

            def gain_weight(self, old, new):
                """Count improved vertices, nothing else."""
                return 1.0

        trav = CSRTraversal(p6)
        gain, updates = scalar_eval(trav, 0, [-1] * 6, WeirdObjective())
        assert gain == 6.0
        assert len(updates) == 6

    def test_harmonic_disconnected_bitwise(self, disconnected):
        trav = CSRTraversal(disconnected)
        objective = HarmonicObjective()
        current = dist_after(disconnected, [0])
        weight = objective.gain_weight
        for u in disconnected.vertices():
            expected = 0.0
            for _v, old, new in improvements(disconnected, u, current):
                expected += weight(old, new)
            gain, _updates = scalar_eval(trav, u, current, objective)
            assert gain == expected


class TestBatchPlane:
    """The vector gain scan (``_vector_scan``, reached through
    ``adaptive_eval`` with budget 0) must replay the scalar kernels bit
    for bit, emission order included."""

    @pytest.mark.parametrize("group", [[], [0], [0, 33], [5, 11, 20]])
    def test_batch_improvements_matches_scalar(self, karate, group):
        trav = CSRTraversal(karate)
        current = dist_after(karate, group)
        for u in karate.vertices():
            assert scan_improvements(trav, u, current, budget=0) == (
                scan_improvements(trav, u, current)
            )
        # Every source outside the group has an edge, so every one of
        # them ran the vector scan.
        assert trav.vector_dispatches == karate.num_vertices - len(group)

    def test_batch_evaluators_bitwise(self, karate):
        trav = CSRTraversal(karate)
        for group in ([], [0], [0, 33, 5]):
            current = dist_after(karate, group)
            current_nd = np.array(current, dtype=np.int32)
            for objective in (
                ClosenessObjective(karate),
                HarmonicObjective(),
            ):
                for u in karate.vertices():
                    for collect in (True, False):
                        gain, updates = restored_eval(
                            trav, u, current, current_nd, objective,
                            collect, 0,
                        )
                        sg, su = scalar_eval(
                            trav, u, current, objective, collect
                        )
                        assert gain.hex() == sg.hex()  # bitwise
                        assert updates == su

    def test_batch_scan_leaves_block_clean(self, karate):
        # The distance scratch's all-clean invariant is what lets scans
        # reuse it without a full wipe; two identical scans must agree,
        # and a full-BFS interleave must not perturb them.
        trav = CSRTraversal(karate)
        current = [-1] * karate.num_vertices
        first = [
            scan_improvements(trav, u, current, budget=0) for u in (0, 1, 2)
        ]
        assert bool((trav._vec_dist == -2).all())
        trav.bfs_distances(0)
        assert [
            scan_improvements(trav, u, current, budget=0) for u in (0, 1, 2)
        ] == first

    def test_empty_sources(self, karate):
        # A source already in the committed set emits nothing and never
        # reaches the vector scan; no sources score nothing.
        trav = CSRTraversal(karate)
        current = dist_after(karate, [7])
        assert scan_improvements(trav, 7, current, budget=0) == []
        assert trav.vector_dispatches == 0
        assert trav.first_round_gains([], HarmonicObjective()) == []

    def test_disconnected_lanes(self, disconnected):
        trav = CSRTraversal(disconnected)
        for group in ([], [0], [0, 3]):
            current = dist_after(disconnected, group)
            for u in disconnected.vertices():
                assert scan_improvements(trav, u, current, budget=0) == (
                    scan_improvements(trav, u, current)
                )


class TestConstruction:
    def test_from_graph_matches_manual(self, karate):
        # A graph wrapped around the same arrays, with no rows built.
        manual = CSRTraversal(Graph.from_arrays(*karate.csr_arrays()))
        auto = CSRTraversal(karate)
        assert manual.n == auto.n == karate.num_vertices
        assert np.shares_memory(manual._nd_indices, auto._nd_indices)
        current = dist_after(karate, [0, 33])
        for u in karate.vertices():
            assert scan_improvements(manual, u, current) == (
                scan_improvements(auto, u, current)
            )

    def test_rows_come_from_the_graph(self, karate):
        # The graph hands over its own neighbour-tuple list, which it
        # fills on first touch.
        trav = CSRTraversal(karate)
        assert trav._rows is karate._rows
        for u in karate.vertices():
            row = karate.neighbors(u)
            assert trav._rows[u] is row

    def test_traversals_of_one_csr_graph_share_rows(self, karate):
        g = Graph.from_arrays(*karate.csr_arrays())
        first = CSRTraversal(g)
        n = g.num_vertices
        for u in g.vertices():
            first.adaptive_eval(u, [n] * n, None, HarmonicObjective(),
                                budget=-1)
        rows = [g.neighbors(u) for u in g.vertices()]
        second = CSRTraversal(g)
        assert all(
            second._rows[u] is row and first._rows[u] is row
            for u, row in enumerate(rows)
        )

    def test_singleton_graph(self):
        g = Graph.from_edges(1, [])
        trav = CSRTraversal(g)
        assert trav.bfs_distances(0) == [0]
        assert scan_improvements(trav, 0, [-1]) == [(0, -1, 0)]
