"""Tests for the group-betweenness extension (Sec. IV-D)."""

import pytest

from repro.centrality.group_betweenness_max import (
    base_gb,
    group_betweenness,
    neisky_gb,
)
from repro.errors import ParameterError
from repro.graph.adjacency import Graph
from repro.graph.generators import (
    complete_graph,
    erdos_renyi,
    path_graph,
    star_graph,
)


class TestGroupBetweenness:
    def test_star_center_covers_all_leaf_pairs(self):
        g = star_graph(5)
        assert group_betweenness(g, [0]) == 6.0  # C(4,2)

    def test_path_middle(self):
        g = path_graph(5)
        # Pairs separated by vertex 2: (0,3), (0,4), (1,3), (1,4).
        assert group_betweenness(g, [2]) == 4.0

    def test_leaf_covers_nothing(self):
        g = star_graph(5)
        assert group_betweenness(g, [3]) == 0.0

    def test_empty_group(self):
        assert group_betweenness(path_graph(4), []) == 0.0

    def test_clique_vertices_cover_nothing(self):
        # All shortest paths are single edges.
        assert group_betweenness(complete_graph(5), [0]) == 0.0

    def test_fractional_coverage(self):
        # C4: between opposite corners there are two shortest paths;
        # one passes through vertex 1.
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert group_betweenness(g, [1]) == pytest.approx(0.5)

    def test_matches_vertex_betweenness_for_singletons(self):
        from repro.centrality.betweenness import betweenness_centrality

        for seed in range(3):
            g = erdos_renyi(14, 0.3, seed=seed)
            bc = betweenness_centrality(g)
            for u in range(0, 14, 3):
                # Group betweenness counts a pair fully when *any*
                # shortest path is hit, so it upper-bounds the classic
                # fractional betweenness of the singleton.
                assert group_betweenness(g, [u]) >= bc[u] - 1e-9

    def test_monotone_in_group(self):
        g = erdos_renyi(16, 0.25, seed=1)
        a = group_betweenness(g, [0])
        b = group_betweenness(g, [0, 1])
        assert b >= a - 1e-9


class TestGreedyVariants:
    def test_base_group_size(self):
        g = erdos_renyi(15, 0.25, seed=2)
        result = base_gb(g, 3)
        assert len(result.group) == 3
        assert len(result.scores) == 3

    def test_scores_non_decreasing(self):
        g = erdos_renyi(15, 0.25, seed=2)
        result = base_gb(g, 3)
        assert list(result.scores) == sorted(result.scores)

    def test_neisky_pool_is_smaller(self):
        from repro.graph.generators import copying_power_law

        g = copying_power_law(50, 2.5, 0.9, seed=4)
        base = base_gb(g, 2)
        sky = neisky_gb(g, 2)
        assert sky.pool_size < base.pool_size
        assert sky.evaluations <= base.evaluations

    def test_neisky_quality(self):
        from repro.graph.generators import copying_power_law

        g = copying_power_law(40, 2.5, 0.85, seed=5)
        base = base_gb(g, 2)
        sky = neisky_gb(g, 2)
        assert sky.final_score >= 0.9 * base.final_score

    def test_invalid_k(self):
        with pytest.raises(ParameterError):
            base_gb(path_graph(4), -2)

    @pytest.mark.parametrize("strategy", ["eager", "lazy"])
    @pytest.mark.parametrize(
        "skyline, message",
        [
            ((40,), "candidate 40 out of range"),  # used to return (40,)
            ((1.5, 2), "candidate 1.5 is not an integer vertex ID"),
            ((True, 2), "candidate True is not an integer vertex ID"),
        ],
    )
    def test_bad_skyline_candidate_is_a_one_line_error(
        self, karate, strategy, skyline, message
    ):
        with pytest.raises(ParameterError) as info:
            neisky_gb(karate, 1, skyline=skyline, strategy=strategy)
        assert str(info.value) == message

    def test_skyline_is_deduplicated(self, karate):
        assert neisky_gb(karate, 2, skyline=(33, 0, 33)) == neisky_gb(
            karate, 2, skyline=(0, 33)
        )

    def test_final_score_empty(self):
        result = base_gb(path_graph(3), 0)
        assert result.final_score == 0.0
