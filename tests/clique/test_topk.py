"""Tests for top-k maximum-clique search (Sec. IV-C.3)."""

import pytest

from repro.clique import topk
from repro.clique.mcbrb import mc_brb
from repro.clique.topk import base_topk_mcc, neisky_topk_mcc
from repro.clique.verify import is_clique
from repro.core.filter_refine import filter_refine_sky
from repro.errors import ParameterError
from repro.graph.adjacency import Graph
from repro.graph.generators import (
    complete_graph,
    copying_power_law,
    erdos_renyi,
)
from repro.workloads.synthetic import plant_cliques


class TestBaseTopk:
    def test_k1_equals_mc_brb(self, karate):
        assert base_topk_mcc(karate, 1) == [mc_brb(karate)]

    def test_all_results_are_cliques(self, karate):
        for clique in base_topk_mcc(karate, 5):
            assert is_clique(karate, clique)

    def test_sizes_non_increasing(self, karate):
        sizes = [len(c) for c in base_topk_mcc(karate, 6)]
        assert sizes == sorted(sizes, reverse=True)

    def test_results_distinct(self, karate):
        cliques = base_topk_mcc(karate, 6)
        assert len({tuple(c) for c in cliques}) == len(cliques)

    def test_k_larger_than_supply(self):
        g = complete_graph(4)
        # Every vertex's MC is the whole clique: only one distinct answer.
        assert base_topk_mcc(g, 5) == [[0, 1, 2, 3]]

    def test_invalid_k(self, karate):
        with pytest.raises(ParameterError):
            base_topk_mcc(karate, 0)

    def test_empty_graph(self):
        assert base_topk_mcc(Graph.from_edges(0, []), 3) == []

    def test_planted_ladder_recovered(self):
        sizes = (10, 8, 6)
        g = plant_cliques(erdos_renyi(60, 0.03, seed=1), sizes, seed=2)
        found = [len(c) for c in base_topk_mcc(g, 3)]
        assert found == [10, 8, 6]


class TestNeiskyTopk:
    def test_k1_matches_base_size(self, karate):
        base = base_topk_mcc(karate, 1)
        sky = neisky_topk_mcc(karate, 1)
        assert len(sky[0]) == len(base[0])

    def test_all_results_are_cliques(self, karate):
        for clique in neisky_topk_mcc(karate, 5):
            assert is_clique(karate, clique)

    def test_rank1_size_always_optimal(self):
        for seed in range(6):
            g = erdos_renyi(24, 0.3, seed=seed)
            base = base_topk_mcc(g, 3)
            sky = neisky_topk_mcc(g, 3)
            assert len(sky[0]) == len(base[0]), seed

    def test_sizes_pointwise_at_most_base(self):
        # NeiSky may miss a tail clique (documented); it must never
        # report a larger one at any rank.
        for seed in range(6):
            g = erdos_renyi(24, 0.3, seed=seed)
            base = [len(c) for c in base_topk_mcc(g, 5)]
            sky = [len(c) for c in neisky_topk_mcc(g, 5)]
            for b, s in zip(base, sky):
                assert s <= b, seed

    def test_usually_matches_base_exactly(self):
        matches = 0
        for seed in range(6):
            g = erdos_renyi(24, 0.3, seed=seed)
            base = [len(c) for c in base_topk_mcc(g, 5)]
            sky = [len(c) for c in neisky_topk_mcc(g, 5)]
            if base == sky[: len(base)]:
                matches += 1
        assert matches >= 5

    def test_planted_ladder_recovered(self):
        sizes = (10, 8, 6)
        g = plant_cliques(erdos_renyi(60, 0.03, seed=1), sizes, seed=2)
        found = [len(c) for c in neisky_topk_mcc(g, 3)]
        assert found == [10, 8, 6]

    def test_accepts_precomputed_skyline(self, karate):
        result = filter_refine_sky(karate)
        a = neisky_topk_mcc(karate, 3, skyline_result=result)
        b = neisky_topk_mcc(karate, 3)
        assert a == b

    def test_results_distinct(self, karate):
        cliques = neisky_topk_mcc(karate, 6)
        assert len({tuple(c) for c in cliques}) == len(cliques)

    def test_invalid_k(self, karate):
        with pytest.raises(ParameterError):
            neisky_topk_mcc(karate, -1)

    def test_empty_graph(self):
        assert neisky_topk_mcc(Graph.from_edges(0, []), 2) == []


def _count_rooted_searches(monkeypatch) -> list[int]:
    """Record the root of every ``max_clique_with_root`` call."""
    roots: list[int] = []
    search = topk.max_clique_with_root

    def counting(graph, root, **kwargs):
        roots.append(root)
        return search(graph, root, **kwargs)

    monkeypatch.setattr(topk, "max_clique_with_root", counting)
    return roots


class TestRootedSearchCount:
    """NeiSkyTopkMCC searches each root once per call; BaseTopkMCC
    re-searches every vertex in every round, as the paper's baseline."""

    def test_neisky_searches_each_root_once(self, monkeypatch):
        g = copying_power_law(400, seed=19)
        roots = _count_rooted_searches(monkeypatch)
        # Without the per-call memo this call ran 493 searches.
        assert neisky_topk_mcc(g, 3) == [
            [0, 1, 2, 3, 4], [1, 23, 306], [1, 68, 90]
        ]
        assert len(roots) == len(set(roots)) == 185

    def test_memo_does_not_outlive_the_call(self, monkeypatch):
        g = copying_power_law(400, seed=19)
        roots = _count_rooted_searches(monkeypatch)
        neisky_topk_mcc(g, 2)
        first = len(roots)
        neisky_topk_mcc(g, 2)
        assert len(roots) == 2 * first == 2 * 182

    def test_base_recomputes_every_round(self, monkeypatch):
        g = erdos_renyi(30, 0.3, seed=4)
        roots = _count_rooted_searches(monkeypatch)
        cliques = base_topk_mcc(g, 3)
        assert len(roots) == len(cliques) * g.num_vertices
