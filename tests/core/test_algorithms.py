"""Per-algorithm behavioural tests (beyond the agreement suite)."""

import pytest

from repro.core.api import neighborhood_skyline
from repro.core.base_sky import base_sky
from repro.core.counters import SkylineCounters
from repro.core.cset import base_cset_sky
from repro.core.domination import neighborhood_included
from repro.core.filter_phase import (
    closed_inclusion_over_edge,
    filter_phase,
)
from repro.core.filter_refine import filter_refine_sky
from repro.core.join_sky import lc_join_sky
from repro.core.naive import naive_skyline
from repro.core.two_hop import base_two_hop_sky
from repro.errors import ParameterError
from repro.graph.adjacency import Graph
from repro.graph.generators import copying_power_law, star_graph


class TestFilterPhase:
    def test_candidates_superset_of_skyline(self, small_power_law):
        candidates, _dom = filter_phase(small_power_law)
        skyline = set(naive_skyline(small_power_law).skyline)
        assert skyline <= set(candidates)

    def test_dominator_entries_self_for_candidates(self, karate):
        candidates, dominator = filter_phase(karate)
        for u in karate.vertices():
            assert (dominator[u] == u) == (u in set(candidates))

    def test_dominator_witness_is_adjacent_inclusion(self, small_power_law):
        g = small_power_law
        _cands, dominator = filter_phase(g)
        for u, w in enumerate(dominator):
            if w != u:
                assert g.has_edge(u, w)
                assert closed_inclusion_over_edge(g, u, w)

    def test_pendants_always_pruned(self, star7):
        # Every leaf is strictly edge-dominated by the hub.
        candidates, _ = filter_phase(star7)
        assert candidates == [0]

    def test_counters_populated(self, karate):
        counters = SkylineCounters()
        filter_phase(karate, counters=counters)
        assert counters.vertices_examined > 0
        assert counters.pair_tests > 0


class TestClosedInclusionOverEdge:
    def test_pendant_hub(self, star7):
        assert closed_inclusion_over_edge(star7, 1, 0)
        assert not closed_inclusion_over_edge(star7, 0, 1)

    def test_gallop_path_matches_merge_path(self):
        # Build a hub big enough to trigger the binary-search branch.
        hub_edges = [(0, i) for i in range(1, 60)]
        hub_edges += [(1, 2), (1, 3)]
        g = Graph.from_edges(60, hub_edges)
        # N[1] = {0,1,2,3} ⊆ N[0]? N(1)\{0} = {2,3} ⊆ N(0) — yes.
        assert closed_inclusion_over_edge(g, 1, 0)
        # And the reverse direction clearly fails.
        assert not closed_inclusion_over_edge(g, 0, 1)

    def test_missing_element_detected_in_gallop(self):
        edges = [(0, i) for i in range(2, 50)]  # 0 adjacent to 2..49
        edges += [(1, 0), (1, 2), (1, 51)]  # 51 not a neighbor of 0
        g = Graph.from_edges(52, edges)
        assert not closed_inclusion_over_edge(g, 1, 0)


class TestFilterRefine:
    def test_candidates_recorded(self, small_power_law):
        result = filter_refine_sky(small_power_law)
        assert result.candidates is not None
        assert set(result.skyline) <= set(result.candidates)

    def test_custom_bloom_width(self, karate):
        wide = filter_refine_sky(karate, bloom_bits=4096)
        narrow = filter_refine_sky(karate, bloom_bits=32)
        assert wide.skyline == narrow.skyline  # exactness regardless

    def test_bloom_seed_does_not_change_answer(self, small_power_law):
        a = filter_refine_sky(small_power_law, seed=0).skyline
        b = filter_refine_sky(small_power_law, seed=99).skyline
        assert a == b

    def test_narrow_filter_counts_false_positives(self, small_power_law):
        counters = SkylineCounters()
        filter_refine_sky(small_power_law, bloom_bits=32, counters=counters)
        wide = SkylineCounters()
        filter_refine_sky(small_power_law, bloom_bits=8192, counters=wide)
        assert counters.bloom_false_positives >= wide.bloom_false_positives

    def test_approximate_mode_is_subset(self, small_power_law):
        exact = filter_refine_sky(small_power_law).skyline_set
        approx = filter_refine_sky(
            small_power_law, exact=False, bloom_bits=32
        ).skyline_set
        assert approx <= exact

    def test_approximate_mode_with_wide_filter_is_exact(self, karate):
        approx = filter_refine_sky(karate, exact=False, bloom_bits=1 << 14)
        exact = filter_refine_sky(karate)
        assert approx.skyline == exact.skyline

    def test_invalid_bloom_width(self, karate):
        with pytest.raises(ParameterError):
            filter_refine_sky(karate, bloom_bits=100)

    def test_dominator_witness_is_inclusion(self, small_power_law):
        g = small_power_law
        result = filter_refine_sky(g)
        for u, w in enumerate(result.dominator):
            if w != u:
                assert neighborhood_included(g, u, w)


class TestBaseSky:
    def test_dominator_witness_is_inclusion(self, small_power_law):
        g = small_power_law
        result = base_sky(g)
        for u, w in enumerate(result.dominator):
            if w != u:
                assert neighborhood_included(g, u, w)

    def test_counters_track_updates(self, karate):
        counters = SkylineCounters()
        base_sky(karate, counters=counters)
        assert counters.counter_updates > 0
        assert counters.dominations_found == 34 - 15

    def test_algorithm_label(self, karate):
        assert base_sky(karate).algorithm == "BaseSky"


class TestBase2Hop:
    def test_handles_one_hop_dominators(self, star7):
        # No filter phase: 1-hop dominations must still be found.
        result = base_two_hop_sky(star7)
        assert result.skyline == (0,)

    def test_algorithm_label(self, karate):
        assert base_two_hop_sky(karate).algorithm == "Base2Hop"


class TestBaseCSet:
    def test_reports_candidates(self, karate):
        result = base_cset_sky(karate)
        assert result.candidates is not None
        assert result.candidate_size >= result.size


class TestLCJoinSky:
    def test_isolated_vertices_kept(self):
        g = Graph.from_edges(4, [(0, 1)])
        result = lc_join_sky(g)
        assert {2, 3} <= result.skyline_set

    def test_algorithm_label(self, karate):
        assert lc_join_sky(karate).algorithm == "LC-Join"


class TestApi:
    def test_unknown_algorithm_rejected(self, karate):
        with pytest.raises(ParameterError, match="unknown skyline"):
            neighborhood_skyline(karate, "quantum")

    def test_options_forwarded(self, karate):
        result = neighborhood_skyline(
            karate, "filter_refine", bloom_bits=64
        )
        assert result.size == 15

    def test_default_is_auto(self, karate):
        # FilterRefineSky with the kernel picked by candidate count; the
        # paper's Alg. 3 stays reachable by name.
        assert neighborhood_skyline(karate).algorithm.startswith(
            "FilterRefineSkyAuto("
        )
        assert (
            neighborhood_skyline(karate, "filter_refine").algorithm
            == "FilterRefineSky"
        )

    def test_counters_threaded_through(self, karate):
        counters = SkylineCounters()
        neighborhood_skyline(karate, "base", counters=counters)
        assert counters.vertices_examined > 0


class TestPaperCaseStudies:
    def test_karate_skyline_matches_paper(self, karate):
        # Fig. 13a: 15 vertices (44 %) in the skyline.
        result = neighborhood_skyline(karate)
        assert result.size == 15

    def test_karate_low_degree_vertices_dominated(self, karate):
        result = neighborhood_skyline(karate)
        outside = [u for u in karate.vertices() if u not in result.skyline_set]
        avg_out = sum(karate.degree(u) for u in outside) / len(outside)
        avg_in = sum(karate.degree(u) for u in result.skyline) / result.size
        assert avg_out < avg_in  # "smaller degrees are easily dominated"

    def test_bombing_proxy_fraction(self):
        from repro.workloads import load

        result = neighborhood_skyline(load("bombing_proxy"))
        # Paper reports 20/64 = 31 %; the proxy is tuned to 21/64.
        assert 0.25 <= result.size / 64 <= 0.35


class TestScaleSmoke:
    def test_medium_copying_graph(self):
        g = copying_power_law(1500, 2.6, 0.9, seed=3)
        fast = filter_refine_sky(g).skyline
        assert fast == base_sky(g).skyline
        assert len(fast) < g.num_vertices
