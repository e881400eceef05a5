"""Differential safety net for the packed-bitset refine kernel.

``filter_refine_bitset`` must return the *same* skyline, dominator
witnesses and candidate set as sequential ``filter_refine`` (which the
rest of the suite pins to ``naive``) — and its headline counters must
agree too, since the kernel claims to test exactly the same pairs.
These tests enforce the claims on hypothesis-generated graphs, on
power-law graphs, on the twin-heavy graphs whose Def. 2 tie-breaks a
wrong kernel would scramble, and on both sides of the dense/sparse
cutover.
"""

from hypothesis import HealthCheck, given, settings

from repro.core.bitset_refine import filter_refine_bitset_sky
from repro.core.counters import SkylineCounters
from repro.core.filter_phase import filter_phase
from repro.core.filter_refine import filter_refine_sky
from repro.core.naive import naive_skyline
from repro.graph.bitmatrix import matrix_words
from tests.conftest import graphs, power_law_graphs, twin_heavy_graphs

COMMON = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

def assert_same_result(bit, seq):
    assert bit.skyline == seq.skyline
    assert bit.dominator == seq.dominator
    assert bit.candidates == seq.candidates


@COMMON
@given(graphs())
def test_bitset_matches_sequential_and_naive(g):
    seq = filter_refine_sky(g)
    bit = filter_refine_bitset_sky(g)
    assert_same_result(bit, seq)
    assert bit.skyline == naive_skyline(g).skyline


@COMMON
@given(power_law_graphs())
def test_bitset_matches_sequential_power_law(g):
    assert_same_result(
        filter_refine_bitset_sky(g), filter_refine_sky(g)
    )


@COMMON
@given(twin_heavy_graphs())
def test_bitset_twin_heavy_tie_breaks(g):
    seq = filter_refine_sky(g)
    bit = filter_refine_bitset_sky(g)
    assert_same_result(bit, seq)
    assert bit.skyline == naive_skyline(g).skyline


@COMMON
@given(graphs())
def test_counters_consistency(g):
    c_bloom, c_bit = SkylineCounters(), SkylineCounters()
    filter_refine_sky(g, counters=c_bloom)
    filter_refine_bitset_sky(g, counters=c_bit)
    # Same pairs reach the test, same scans run, same dominations land.
    assert c_bit.vertices_examined == c_bloom.vertices_examined
    assert c_bit.pair_tests == c_bloom.pair_tests
    assert c_bit.dominations_found == c_bloom.dominations_found
    # Bulk tallies may overshoot a strict-exit bloom scan, never under.
    assert c_bit.degree_skips >= c_bloom.degree_skips
    assert c_bit.dominated_skips >= c_bloom.dominated_skips
    # The kernel owns no bloom machinery.
    assert c_bit.bloom_subset_rejects == 0
    assert c_bit.bloom_member_checks == 0
    assert c_bit.nbr_checks == 0


@COMMON
@given(graphs())
def test_cutover_both_sides_agree(g):
    candidates, _ = filter_phase(g)
    words = matrix_words(len(candidates), g.num_vertices)
    # Budgets must be positive now, so the under-budget probe clamps to
    # one word; below two words both sides run the packed kernel.
    bitset_side = filter_refine_bitset_sky(g, word_budget=max(words, 1))
    bloom_side = filter_refine_bitset_sky(
        g, word_budget=max(words - 1, 1)
    )
    assert bitset_side.skyline == bloom_side.skyline
    assert bitset_side.dominator == bloom_side.dominator
    if words > 1:
        assert bitset_side.algorithm == "FilterRefineSkyBitset"
        assert (
            bloom_side.algorithm == "FilterRefineSkyBitset(bloom-fallback)"
        )
