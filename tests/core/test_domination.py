"""Tests for the domination predicates (Defs. 1, 2, 4, 5)."""

from repro.core.domination import (
    dominates,
    edge_constrained_dominates,
    edge_constrained_included,
    neighborhood_included,
    two_hop_neighbors,
)
from repro.graph.adjacency import Graph
from repro.graph.generators import complete_graph, path_graph, star_graph


class TestNeighborhoodInclusion:
    def test_pendant_included_by_hub(self, star7):
        # Leaf 1 has N(1) = {0} ⊆ N[0].
        assert neighborhood_included(star7, 1, 0)

    def test_hub_not_included_by_pendant(self, star7):
        assert not neighborhood_included(star7, 0, 1)

    def test_twins_mutually_included(self, star7):
        # Two leaves share N = {0}.
        assert neighborhood_included(star7, 1, 2)
        assert neighborhood_included(star7, 2, 1)

    def test_self_inclusion_is_true(self, k5):
        assert neighborhood_included(k5, 3, 3)

    def test_clique_members_mutually_included(self, k5):
        assert neighborhood_included(k5, 0, 1)
        assert neighborhood_included(k5, 1, 0)

    def test_path_midpoints_not_included(self, p6):
        assert not neighborhood_included(p6, 2, 3)

    def test_isolated_vertex_vacuously_included(self):
        g = Graph.from_edges(3, [(0, 1)])
        assert neighborhood_included(g, 2, 0)


class TestDomination:
    def test_strict_domination(self, star7):
        assert dominates(star7, 0, 1)  # hub dominates leaf
        assert not dominates(star7, 1, 0)

    def test_mutual_breaks_by_id(self, star7):
        # Leaves are twins: smaller ID dominates.
        assert dominates(star7, 1, 2)
        assert not dominates(star7, 2, 1)

    def test_clique_id_order(self, k5):
        assert dominates(k5, 0, 4)
        assert dominates(k5, 0, 1)
        assert not dominates(k5, 1, 0)

    def test_no_self_domination(self, k5):
        assert not dominates(k5, 2, 2)

    def test_isolated_vertex_never_dominated(self):
        g = Graph.from_edges(3, [(0, 1)])
        assert not dominates(g, 0, 2)
        assert not dominates(g, 1, 2)

    def test_isolated_vertex_dominates_nothing(self):
        g = Graph.from_edges(3, [(0, 1)])
        assert not dominates(g, 2, 0)

    def test_antisymmetry_on_random_pairs(self, small_power_law):
        g = small_power_law
        for u in range(0, 60, 7):
            for v in range(0, 60, 11):
                if u != v:
                    assert not (dominates(g, u, v) and dominates(g, v, u))

    def test_transitivity(self, small_power_law):
        # The vicinal pre-order is transitive; spot-check via triples
        # built from actual domination pairs.
        g = small_power_law
        pairs = [
            (u, w)
            for u in g.vertices()
            for w in two_hop_neighbors(g, u)
            if dominates(g, w, u)
        ]
        dominated_by = {}
        for u, w in pairs:
            dominated_by.setdefault(u, []).append(w)
        checked = 0
        for u, ws in dominated_by.items():
            for w in ws:
                for x in dominated_by.get(w, []):
                    if x != u:
                        assert dominates(g, x, u), (u, w, x)
                        checked += 1
        assert checked > 0  # the fixture must actually exercise chains


class TestEdgeConstrained:
    def test_requires_edge(self, p6):
        # 0 and 2 are 2 hops apart: no edge-constrained relation.
        assert not edge_constrained_included(p6, 0, 2)

    def test_pendant_edge_dominated(self, star7):
        assert edge_constrained_dominates(star7, 0, 1)

    def test_true_twins_tie_by_id(self):
        # K3 vertices are adjacent true twins.
        g = complete_graph(3)
        assert edge_constrained_dominates(g, 0, 1)
        assert not edge_constrained_dominates(g, 1, 0)

    def test_edge_constrained_implies_plain(self, small_power_law):
        g = small_power_law
        for u, v in list(g.edges())[:300]:
            if edge_constrained_dominates(g, u, v):
                assert dominates(g, u, v)
            if edge_constrained_dominates(g, v, u):
                assert dominates(g, v, u)


class TestTwoHop:
    def test_path_two_hops(self, p6):
        assert sorted(two_hop_neighbors(p6, 0)) == [1, 2]
        assert sorted(two_hop_neighbors(p6, 2)) == [0, 1, 3, 4]

    def test_excludes_self(self, k5):
        assert 2 not in list(two_hop_neighbors(k5, 2))

    def test_no_duplicates(self, karate):
        for u in karate.vertices():
            seen = list(two_hop_neighbors(karate, u))
            assert len(seen) == len(set(seen))

    def test_isolated_vertex_has_none(self):
        g = Graph.from_edges(2, [])
        assert list(two_hop_neighbors(g, 0)) == []

    def test_matches_bfs_definition(self, karate):
        from repro.paths.csr import bfs_distances

        for u in karate.vertices():
            via_iter = set(two_hop_neighbors(karate, u))
            dist = bfs_distances(karate, u)
            via_bfs = {
                v for v, d in enumerate(dist) if d in (1, 2) and v != u
            }
            assert via_iter == via_bfs
