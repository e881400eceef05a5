"""Tests for the flat-array CSR BFS kernels.

:class:`~repro.paths.csr.CSRTraversal` re-implements the list-based
kernels of :mod:`repro.paths.bfs` and :mod:`repro.paths.truncated` over
preallocated scratch buffers; every test here is an equivalence check
against those references, because the lazy greedy engine's exactness
proof leans on the kernels being *identical*, not just correct.
"""

import pytest

from repro.centrality.group_closeness_max import ClosenessObjective
from repro.centrality.group_harmonic_max import HarmonicObjective
from repro.errors import ParameterError
from repro.graph.adjacency import Graph
from repro.paths.bfs import bfs_distances, multi_source_distances
from repro.paths.csr import (
    GAIN_BATCH_MAX_LANES,
    CSRTraversal,
    choose_gain_batch,
    make_batch_evaluator,
    make_evaluator,
    resolve_gain_batch,
    validate_gain_batch,
)
from repro.paths.truncated import improvements


def dist_after(graph, group):
    """The eager driver's distance vector ``d(v, S)`` for group ``S``."""
    if not group:
        return [-1] * graph.num_vertices
    return multi_source_distances(graph, group)


class TestFullBfs:
    def test_path(self, p6):
        trav = CSRTraversal.from_graph(p6)
        assert trav.bfs_distances(0) == bfs_distances(p6, 0)

    def test_every_source_matches(self, karate):
        trav = CSRTraversal.from_graph(karate)
        for src in karate.vertices():
            assert trav.bfs_distances(src) == bfs_distances(karate, src)

    def test_disconnected_marks_unreachable(self, disconnected):
        trav = CSRTraversal.from_graph(disconnected)
        for src in disconnected.vertices():
            assert trav.bfs_distances(src) == bfs_distances(
                disconnected, src
            )

    def test_multi_source(self, karate):
        trav = CSRTraversal.from_graph(karate)
        for sources in ([5], [0, 33], [0, 16, 33], []):
            assert trav.multi_source_distances(
                sources
            ) == multi_source_distances(karate, sources)

    def test_multi_source_duplicates(self, p6):
        trav = CSRTraversal.from_graph(p6)
        assert trav.multi_source_distances([2, 2]) == bfs_distances(p6, 2)

    def test_buffer_reuse_across_calls(self, karate):
        # The queue buffer is shared state; interleaving full and
        # truncated traversals must not leak between calls.
        trav = CSRTraversal.from_graph(karate)
        first = trav.bfs_distances(0)
        trav.improvements(33, [-1] * karate.num_vertices)
        trav.multi_source_distances([1, 2])
        assert trav.bfs_distances(0) == first
        assert all(d == -2 for d in trav._new_dist)


class TestImprovements:
    @pytest.mark.parametrize("group", [[], [0], [0, 33], [5, 11, 20]])
    def test_matches_generator_kernel(self, karate, group):
        trav = CSRTraversal.from_graph(karate)
        current = dist_after(karate, group)
        for u in karate.vertices():
            expected = list(improvements(karate, u, current))
            assert trav.improvements(u, current) == expected

    def test_source_in_group_empty(self, karate):
        trav = CSRTraversal.from_graph(karate)
        current = dist_after(karate, [7])
        assert trav.improvements(7, current) == []
        assert all(d == -2 for d in trav._new_dist)

    def test_disconnected_components(self, disconnected):
        trav = CSRTraversal.from_graph(disconnected)
        for group in ([], [0], [0, 3]):
            current = dist_after(disconnected, group)
            for u in disconnected.vertices():
                expected = list(improvements(disconnected, u, current))
                assert trav.improvements(u, current) == expected

    def test_scratch_reset_between_sources(self, karate):
        trav = CSRTraversal.from_graph(karate)
        current = [-1] * karate.num_vertices
        # Same source twice: a dirty new_dist buffer would prune the
        # second call down to nothing.
        first = trav.improvements(0, current)
        assert trav.improvements(0, current) == first


class TestEvaluators:
    def objective_cases(self, graph):
        return [
            ("closeness", ClosenessObjective(graph)),
            ("harmonic", HarmonicObjective()),
        ]

    @pytest.mark.parametrize("group", [[], [0], [0, 33, 5]])
    def test_gain_matches_weight_sum(self, karate, group):
        trav = CSRTraversal.from_graph(karate)
        current = dist_after(karate, group)
        for _name, objective in self.objective_cases(karate):
            evaluate = make_evaluator(trav, objective)
            weight = objective.gain_weight
            for u in karate.vertices():
                expected_gain = 0.0
                expected_updates = []
                for v, old, new in improvements(karate, u, current):
                    expected_gain += weight(old, new)
                    expected_updates.append((v, new))
                gain, updates = evaluate(u, current, True)
                assert gain == expected_gain  # bitwise, not approx
                assert updates == expected_updates

    def test_collect_false_same_gain(self, karate):
        trav = CSRTraversal.from_graph(karate)
        current = [-1] * karate.num_vertices
        for _name, objective in self.objective_cases(karate):
            evaluate = make_evaluator(trav, objective)
            for u in (0, 16, 33):
                gain_c, updates = evaluate(u, current, True)
                gain_n, none = evaluate(u, current, False)
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

        trav = CSRTraversal.from_graph(p6)
        evaluate = make_evaluator(trav, WeirdObjective())
        gain, updates = evaluate(0, [-1] * 6, True)
        assert gain == 6.0
        assert len(updates) == 6

    def test_harmonic_disconnected_bitwise(self, disconnected):
        trav = CSRTraversal.from_graph(disconnected)
        objective = HarmonicObjective()
        evaluate = make_evaluator(trav, objective)
        current = dist_after(disconnected, [0])
        weight = objective.gain_weight
        for u in disconnected.vertices():
            expected = 0.0
            for _v, old, new in improvements(disconnected, u, current):
                expected += weight(old, new)
            gain, _updates = evaluate(u, current, True)
            assert gain == expected


class TestBatchPlane:
    """The batched gain plane must replay the scalar kernels bit for bit."""

    def batch_trav(self, graph):
        trav = CSRTraversal.from_graph(graph)
        if not trav.supports_batch:
            pytest.skip("batch plane needs numpy ndarray CSR views")
        return trav

    @pytest.mark.parametrize("group", [[], [0], [0, 33], [5, 11, 20]])
    def test_batch_improvements_matches_scalar(self, karate, group):
        trav = self.batch_trav(karate)
        current = dist_after(karate, group)
        sources = [u for u in karate.vertices()]
        streams = trav.batch_improvements(sources, current)
        for u, stream in zip(sources, streams):
            assert stream == trav.improvements(u, current)

    def test_batch_evaluators_bitwise(self, karate):
        trav = self.batch_trav(karate)
        for group in ([], [0], [0, 33, 5]):
            current = dist_after(karate, group)
            for objective in (
                ClosenessObjective(karate),
                HarmonicObjective(),
            ):
                evaluate = make_evaluator(trav, objective)
                batch_evaluate = make_batch_evaluator(trav, objective)
                sources = [
                    u for u in karate.vertices() if current[u] != 0
                ]
                for collect in (True, False):
                    results = batch_evaluate(sources, current, collect)
                    for u, (gain, updates) in zip(sources, results):
                        sg, su = evaluate(u, current, collect)
                        assert gain == sg  # bitwise, not approx
                        assert updates == su

    def test_batch_scan_leaves_block_clean(self, karate):
        # The (B, n) distance block's all-clean invariant is what lets
        # calls reuse it without a full wipe; two identical calls must
        # agree, and a full-BFS interleave must not perturb them.
        trav = self.batch_trav(karate)
        current = [-1] * karate.num_vertices
        first = trav.batch_improvements([0, 1, 2], current)
        trav.bfs_distances(0)
        assert trav.batch_improvements([0, 1, 2], current) == first

    def test_duplicate_sources_are_independent_lanes(self, p6):
        trav = self.batch_trav(p6)
        current = [-1] * 6
        a, b = trav.batch_improvements([3, 3], current)
        assert a == b == trav.improvements(3, current)

    def test_empty_sources(self, karate):
        trav = self.batch_trav(karate)
        assert trav.batch_improvements([], [-1] * 34) == []

    def test_disconnected_lanes(self, disconnected):
        trav = self.batch_trav(disconnected)
        current = dist_after(disconnected, [0])
        sources = list(disconnected.vertices())
        streams = trav.batch_improvements(sources, current)
        for u, stream in zip(sources, streams):
            assert stream == trav.improvements(u, current)


class TestGainBatchSizing:
    def test_small_graphs_stay_scalar(self):
        assert choose_gain_batch(10, 100) == 1

    def test_single_candidate_stays_scalar(self):
        assert choose_gain_batch(10_000, 1) == 1

    def test_large_graph_caps_at_max_lanes(self):
        assert choose_gain_batch(10_000, 10_000) == GAIN_BATCH_MAX_LANES

    def test_pool_bounds_lanes(self):
        assert choose_gain_batch(10_000, 7) == 7

    def test_validate_rejects_junk(self):
        for bad in (0, -3, 2.5, True, "fast", None):
            with pytest.raises(ParameterError):
                validate_gain_batch(bad)
        validate_gain_batch("auto")
        validate_gain_batch(64)

    def test_resolve_honours_explicit_batch(self):
        assert resolve_gain_batch(5, 1000, 100) == 5
        # Explicit requests are clamped by the cell-cap memory guard.
        assert resolve_gain_batch(10**9, 1 << 20, 10**9) <= (1 << 24)

    def test_resolve_auto_matches_choose(self):
        assert resolve_gain_batch("auto", 10_000, 500) in (
            1,
            choose_gain_batch(10_000, 500),
        )


class TestConstruction:
    def test_from_graph_matches_manual(self, karate):
        indptr, indices = karate.to_csr()
        manual = CSRTraversal(indptr, indices)
        auto = CSRTraversal.from_graph(karate)
        assert manual.n == auto.n == karate.num_vertices
        assert list(manual.indices) == list(auto.indices)

    def test_singleton_graph(self):
        g = Graph.from_edges(1, [])
        trav = CSRTraversal.from_graph(g)
        assert trav.bfs_distances(0) == [0]
        assert trav.improvements(0, [-1]) == [(0, -1, 0)]
