"""Unit tests for the packed-bitset refine algorithm and its cutover."""

import pytest

from repro.core import neighborhood_skyline
from repro.core.bitset_refine import (
    DEFAULT_WORD_BUDGET,
    filter_refine_bitset_sky,
)
from repro.core.counters import SkylineCounters
from repro.core.filter_phase import filter_phase
from repro.core.filter_refine import filter_refine_sky
from repro.errors import ParameterError
from repro.graph.adjacency import Graph
from repro.graph.bitmatrix import HAVE_NUMPY, matrix_words
from repro.graph.karate import karate_club


def test_karate_matches_bloom_baseline():
    g = karate_club()
    c_bloom, c_bit = SkylineCounters(), SkylineCounters()
    ref = filter_refine_sky(g, counters=c_bloom)
    bit = filter_refine_bitset_sky(g, counters=c_bit)
    assert bit.skyline == ref.skyline
    assert bit.dominator == ref.dominator
    assert bit.candidates == ref.candidates
    assert bit.algorithm == "FilterRefineSkyBitset"
    # The pairs reaching the test are the same pairs.
    assert c_bit.vertices_examined == c_bloom.vertices_examined
    assert c_bit.pair_tests == c_bloom.pair_tests
    assert c_bit.dominations_found == c_bloom.dominations_found
    # Bulk skip tallies never undercount the bloom path's.
    assert c_bit.degree_skips >= c_bloom.degree_skips
    assert c_bit.dominated_skips >= c_bloom.dominated_skips
    # No bloom machinery on the bitset path.
    assert c_bit.bloom_subset_rejects == 0
    assert c_bit.bloom_member_checks == 0
    assert c_bit.bloom_member_rejects == 0
    assert c_bit.bloom_false_positives == 0
    assert c_bit.nbr_checks == 0


@pytest.mark.skipif(not HAVE_NUMPY, reason="requires numpy")
def test_bitset_path_extras():
    g = karate_club()
    counters = SkylineCounters()
    filter_refine_bitset_sky(g, counters=counters)
    assert counters.extra["refine_path"] == "bitset"
    candidates, _ = filter_phase(g)
    assert counters.extra["bitset_words"] == matrix_words(
        len(candidates), g.num_vertices
    )


def test_word_budget_tiny_forces_fallback():
    # karate packs 18 rows of 1 word each; a 1-word budget can never
    # admit the matrix, so the run falls back to the bloom kernel.
    g = karate_club()
    counters = SkylineCounters()
    result = filter_refine_bitset_sky(g, word_budget=1, counters=counters)
    ref = filter_refine_sky(g)
    assert result.dominator == ref.dominator
    assert result.algorithm == "FilterRefineSkyBitset(bloom-fallback)"
    assert counters.extra["refine_path"] == "bloom-fallback"
    assert counters.extra["bitset_words_over_budget"] == matrix_words(
        len(result.candidates), g.num_vertices
    )
    # The fallback runs the real bloom ladder.
    assert counters.bloom_member_checks > 0


@pytest.mark.skipif(not HAVE_NUMPY, reason="requires numpy")
def test_cutover_boundary_exact():
    g = karate_club()
    candidates, _ = filter_phase(g)
    words = matrix_words(len(candidates), g.num_vertices)
    at = filter_refine_bitset_sky(g, word_budget=words)
    below = filter_refine_bitset_sky(g, word_budget=words - 1)
    assert at.algorithm == "FilterRefineSkyBitset"
    assert below.algorithm == "FilterRefineSkyBitset(bloom-fallback)"
    assert at.dominator == below.dominator


def test_nonpositive_word_budget_rejected():
    # Boundary validation: zero used to route silently to the bloom
    # fallback; both zero and negative budgets are now hard errors.
    with pytest.raises(ParameterError):
        filter_refine_bitset_sky(karate_club(), word_budget=-1)
    with pytest.raises(ParameterError):
        filter_refine_bitset_sky(karate_club(), word_budget=0)


def test_api_dispatch():
    g = karate_club()
    result = neighborhood_skyline(g, algorithm="filter_refine_bitset")
    assert result.skyline == filter_refine_sky(g).skyline
    # The word budget flows through the options dict.
    forced = neighborhood_skyline(
        g, algorithm="filter_refine_bitset", word_budget=1
    )
    assert forced.algorithm == "FilterRefineSkyBitset(bloom-fallback)"
    with pytest.raises(ParameterError):
        neighborhood_skyline(
            g, algorithm="filter_refine_bitset", word_budget=0
        )


def test_missing_numpy_falls_back(monkeypatch):
    import repro.core.bitset_refine as br

    monkeypatch.setattr(br, "HAVE_NUMPY", False)
    g = karate_club()
    result = br.filter_refine_bitset_sky(g)
    assert result.algorithm == "FilterRefineSkyBitset(bloom-fallback)"
    assert result.dominator == filter_refine_sky(g).dominator


def test_default_budget_admits_registry_scale():
    # A 10k-vertex graph with a 2k candidate set sits far under the
    # default budget (the registry instances all do).
    assert matrix_words(2000, 10000) <= DEFAULT_WORD_BUDGET


def test_empty_and_tiny_graphs():
    for g in (
        Graph.from_edges(0, []),
        Graph.from_edges(1, []),
        Graph.from_edges(3, []),
        Graph.from_edges(2, [(0, 1)]),
    ):
        ref = filter_refine_sky(g)
        bit = filter_refine_bitset_sky(g)
        assert bit.skyline == ref.skyline
        assert bit.dominator == ref.dominator


def test_uninstrumented_run_matches_instrumented():
    g = karate_club()
    counted = filter_refine_bitset_sky(g, counters=SkylineCounters())
    fast = filter_refine_bitset_sky(g)
    assert fast.skyline == counted.skyline
    assert fast.dominator == counted.dominator


class TestDensityHeuristic:
    """The candidate-density cutover (the dblp_sim-shaped regression)."""

    def test_predicate_thresholds(self):
        from repro.core import bitset_refine as br

        floor = br.DENSITY_FALLBACK_MIN_CANDIDATES
        # Below the size floor density never matters.
        assert not br.density_prefers_bloom(floor - 1, floor - 1)
        # Above the floor the density threshold decides.
        assert br.density_prefers_bloom(floor, floor * 2)  # density 0.5
        assert not br.density_prefers_bloom(floor, floor * 10)  # 0.1
        # dblp_sim's shape (|C|=2757, n=5800) must trip it ...
        assert br.density_prefers_bloom(2757, 5800)
        # ... while wikitalk_sim (|C|=480) and flixster_sim (0.27) must not.
        assert not br.density_prefers_bloom(480, 9000)
        assert not br.density_prefers_bloom(1804, 6600)

    def test_karate_stays_bitset_by_size_floor(self):
        # karate is *denser* than the threshold (18/34 ≈ 0.53) — only
        # the candidate-count floor keeps it on the packed path.
        from repro.core import bitset_refine as br

        g = karate_club()
        candidates, _ = filter_phase(g)
        assert len(candidates) > br.DENSITY_FALLBACK_THRESHOLD * g.num_vertices
        counters = SkylineCounters()
        filter_refine_bitset_sky(g, counters=counters)
        assert counters.extra["refine_path"] == "bitset"

    @pytest.mark.skipif(not HAVE_NUMPY, reason="requires numpy")
    def test_density_fallback_fires_and_matches(self, monkeypatch):
        from repro.core import bitset_refine as br

        monkeypatch.setattr(br, "DENSITY_FALLBACK_MIN_CANDIDATES", 1)
        g = karate_club()
        counters = SkylineCounters()
        result = filter_refine_bitset_sky(g, counters=counters)
        ref = filter_refine_sky(g)
        assert result.dominator == ref.dominator
        assert result.algorithm == "FilterRefineSkyBitset(bloom-fallback)"
        assert counters.extra["refine_path"] == "bloom-fallback"
        assert counters.extra["bitset_fallback_reason"] == "candidate-density"
        assert counters.extra["candidate_density"] == pytest.approx(18 / 34)
        # Word-budget bookkeeping belongs to the other fallback reason.
        assert "bitset_words_over_budget" not in counters.extra

    @pytest.mark.skipif(not HAVE_NUMPY, reason="requires numpy")
    def test_density_fallback_can_be_disabled(self, monkeypatch):
        from repro.core import bitset_refine as br

        monkeypatch.setattr(br, "DENSITY_FALLBACK_MIN_CANDIDATES", 1)
        g = karate_club()
        counters = SkylineCounters()
        result = filter_refine_bitset_sky(
            g, counters=counters, density_fallback=False
        )
        assert counters.extra["refine_path"] == "bitset"
        assert result.dominator == filter_refine_sky(g).dominator

    def test_word_budget_reason_recorded(self):
        g = karate_club()
        counters = SkylineCounters()
        filter_refine_bitset_sky(g, word_budget=1, counters=counters)
        assert counters.extra["bitset_fallback_reason"] == "word-budget"

