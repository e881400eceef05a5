"""Differential safety net for the block-vectorized refine kernel.

``filter_refine_block`` must return the *same* skyline, dominator
witnesses and candidate set as the sequential bloom baseline, and the
same skyline as ``naive`` — bit for bit, on hypothesis-generated graphs, on the
twin-heavy tie-break stressors and on every registered dataset.  The
counter relations the kernel claims are pinned too: ``n + |C|``
vertices examined (every vertex by the filter phase, every candidate
by the refine), the same dominations found, no skip tallies (the
pivot gather visits no other 2-hop pair), zero bloom machinery, and
no extra besides the filter phase's pretest tally.

The large workload tier is covered by the same differential run in
``benchmarks/bench_refine_vector.py`` (which must assert bit-for-bit
equality before recording its speedup rows); rerunning the ~50s-per-
dataset bloom baseline here would dominate the whole suite, so the
large-tier test is opt-in via ``REPRO_LARGE_TESTS=1``.
"""

import os
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import block_refine, neighborhood_skyline
from repro.core.block_refine import filter_refine_block_sky
from repro.core.counters import SkylineCounters
from repro.core.filter_refine import filter_refine_sky
from repro.core.join_sky import lc_join_sky
from repro.core.naive import naive_skyline
from repro.workloads import load, names
from tests.conftest import graphs, power_law_graphs, twin_heavy_graphs

COMMON = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

RUN_LARGE = os.environ.get("REPRO_LARGE_TESTS") == "1"


def assert_same_result(blk, ref):
    assert blk.skyline == ref.skyline
    assert blk.dominator == ref.dominator
    assert blk.candidates == ref.candidates


def assert_counter_relations(
    g, blk, c_blk: SkylineCounters, c_ref: SkylineCounters
):
    # The vectorized filter examines every vertex, the refine every
    # candidate; the same dominations land.
    assert c_blk.vertices_examined == g.num_vertices + len(blk.candidates)
    assert c_blk.dominations_found == c_ref.dominations_found
    # The pivot gather skips no pair outside its rows, and the filter
    # phase's degree test is one conjunct of its pretest: no skips.
    assert c_blk.degree_skips == 0
    assert c_blk.dominated_skips == 0
    # The kernel owns no bloom machinery and needs no exact recheck.
    assert c_blk.bloom_subset_rejects == 0
    assert c_blk.bloom_member_checks == 0
    assert c_blk.bloom_member_rejects == 0
    assert c_blk.bloom_false_positives == 0
    assert c_blk.nbr_checks == 0
    # No core-number pretest (its entries count as pair_tests) and no
    # extra of the refine's own.
    assert set(c_blk.extra) <= {"filter_pretest_rejects"}


@COMMON
@given(graphs())
def test_block_matches_bloom_naive(g):
    seq = filter_refine_sky(g)
    blk = filter_refine_block_sky(g)
    assert_same_result(blk, seq)
    assert blk.skyline == naive_skyline(g).skyline


@COMMON
@given(graphs())
def test_block_counter_relations(g):
    c_seq, c_blk = SkylineCounters(), SkylineCounters()
    filter_refine_sky(g, counters=c_seq)
    blk = filter_refine_block_sky(g, counters=c_blk)
    assert_counter_relations(g, blk, c_blk, c_seq)


@COMMON
@given(power_law_graphs())
def test_block_matches_sequential_power_law(g):
    assert_same_result(filter_refine_block_sky(g), filter_refine_sky(g))


@COMMON
@given(twin_heavy_graphs())
def test_block_twin_heavy_tie_breaks(g):
    # Twin classes maximize mutual inclusions, the regime where a wrong
    # Def. 2 settle rule (strict vs ID tie-break) diverges first.
    seq = filter_refine_sky(g)
    blk = filter_refine_block_sky(g)
    assert_same_result(blk, seq)
    assert blk.skyline == naive_skyline(g).skyline


@COMMON
@given(graphs(), st.integers(min_value=1, max_value=64))
def test_block_chunking_invariance(g, entry_budget):
    """Any entry budget (however absurdly small) gives the same output
    and the same counter totals — blocks are a pure scheduling knob."""
    c_ref, c_tiny = SkylineCounters(), SkylineCounters()
    ref = filter_refine_block_sky(g, counters=c_ref)
    with mock.patch.object(block_refine, "BLOCK_ENTRY_BUDGET", entry_budget):
        tiny = filter_refine_block_sky(g, counters=c_tiny)
    assert_same_result(tiny, ref)
    assert c_tiny.as_dict() == c_ref.as_dict()
    assert c_tiny.extra == c_ref.extra


@pytest.mark.parametrize("name", names())
def test_every_standard_dataset_three_way(name):
    """Block (the ``auto`` default), bloom Alg. 3 and the LC-Join
    baseline, which shares no code with either."""
    g = load(name)
    c_seq, c_blk = SkylineCounters(), SkylineCounters()
    seq = filter_refine_sky(g, counters=c_seq)
    blk = neighborhood_skyline(g, counters=c_blk)
    assert_same_result(blk, seq)
    assert blk.skyline == lc_join_sky(g).skyline
    assert_counter_relations(g, blk, c_blk, c_seq)


@pytest.mark.skipif(
    not RUN_LARGE,
    reason=(
        "large-tier differential takes minutes (sequential bloom at "
        "million-edge scale); set REPRO_LARGE_TESTS=1 to run — "
        "benchmarks/bench_refine_vector.py asserts the same equality "
        "on kron_large in CI"
    ),
)
@pytest.mark.parametrize("name", names(tier="large"))
def test_every_large_dataset_matches_bloom(name):
    g = load(name)
    seq = filter_refine_sky(g)
    blk = filter_refine_block_sky(g)
    assert_same_result(blk, seq)
