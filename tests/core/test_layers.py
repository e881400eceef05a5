"""Tests for the dominance-layer decomposition and its pair enumeration."""

import pytest

from repro.core.domination import dominates, two_hop_neighbors
from repro.core.filter_refine import filter_refine_sky
from repro.core.layers import (
    _dominance_dag,
    _dominance_pairs,
    dominance_layers,
    layer_sets,
)
from repro.graph.adjacency import Graph
from repro.graph.generators import (
    complete_graph,
    copying_power_law,
    erdos_renyi,
    path_graph,
    star_graph,
)


class TestLayers:
    def test_layer_one_is_skyline(self, karate):
        sets_ = layer_sets(karate)
        assert sets_[0] == filter_refine_sky(karate).skyline

    def test_clique_layers_follow_ids(self):
        g = complete_graph(5)
        # Domination chain 0 > 1 > 2 > 3 > 4 (ID tie-breaks, transitive).
        assert dominance_layers(g) == [1, 2, 3, 4, 5]

    def test_star_leaf_chain(self, star7):
        # Leaves are mutual twins, and the ID tie-break makes every
        # smaller-ID leaf dominate every larger one — so the twin class
        # is a *chain*, not an antichain, and depths stack up.
        assert dominance_layers(star7) == [1, 2, 3, 4, 5, 6, 7]

    def test_path_layers(self):
        layers = dominance_layers(path_graph(5))
        # Endpoints are dominated by their neighbors; interior free.
        assert layers[0] == 2 and layers[4] == 2
        assert layers[1] == layers[2] == layers[3] == 1

    def test_isolated_vertices_layer_one(self):
        g = Graph.from_edges(3, [(0, 1)])
        assert dominance_layers(g)[2] == 1

    def test_empty_graph(self):
        assert dominance_layers(Graph.from_edges(0, [])) == []
        assert layer_sets(Graph.from_edges(0, [])) == []

    def test_layers_partition_vertices(self, small_power_law):
        sets_ = layer_sets(small_power_law)
        seen = sorted(v for layer in sets_ for v in layer)
        assert seen == list(small_power_law.vertices())
        assert all(layer for layer in sets_)  # no empty layers

    @pytest.mark.parametrize("seed", range(4))
    def test_dominators_sit_strictly_above(self, seed):
        g = erdos_renyi(22, 0.2, seed=seed)
        layers = dominance_layers(g)
        for u in g.vertices():
            for w in two_hop_neighbors(g, u):
                if dominates(g, w, u):
                    assert layers[w] < layers[u], (u, w)

    def test_depth_reflects_longest_chain(self):
        g = copying_power_law(80, 2.5, 0.9, seed=7)
        layers = dominance_layers(g)
        depth = max(layers)
        # There must exist an actual chain of that length ending at a
        # deepest vertex.
        deepest = layers.index(depth)
        length = 1
        current = deepest
        while layers[current] > 1:
            for w in two_hop_neighbors(g, current):
                if (
                    dominates(g, w, current)
                    and layers[w] == layers[current] - 1
                ):
                    current = w
                    length += 1
                    break
            else:
                pytest.fail("layer value without a supporting dominator")
        assert length == depth


class TestDominancePairs:
    """The pair enumeration the layers are built on: every domination
    relationship, not just the ones a depth can see."""

    def test_matches_pairwise_predicate(self):
        for seed in range(6):
            g = erdos_renyi(22, 0.2, seed=seed)
            expected = {
                (w, u)
                for u in g.vertices()
                for w in two_hop_neighbors(g, u)
                if dominates(g, w, u)
            }
            assert set(_dominance_pairs(g)) == expected, seed

    def test_dag_transitively_closed(self):
        for seed in range(5):
            g = copying_power_law(40, 2.5, 0.85, seed=seed)
            closed = {u: set(vs) for u, vs in _dominance_dag(g).items()}
            for u, direct in closed.items():
                for v in direct:
                    assert closed[v] <= direct, (seed, u, v)
            for u in g.vertices():
                for w in two_hop_neighbors(g, u):
                    if dominates(g, w, u):
                        assert u in closed[w], (seed, w, u)
