"""The ``algorithm="auto"`` default and the block kernel's batched passes.

``neighborhood_skyline``'s default runs the filter phase once and hands
its output to the refine kernel ``choose_refine_kernel`` names.  These
tests pin it to the paper's FilterRefineSky and to the naive reference
bit for bit, on both sides of the cutover; pin the large-candidate
route (block) on a seeded R-MAT graph; and check the block kernel's
batched witness pass against a brute-force, pure-Python replay of the
sequential first-settling-entry scan.
"""

from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import block_refine, neighborhood_skyline
from repro.core.block_refine import (
    BLOCK_KERNEL_MIN_CANDIDATES,
    HAVE_NUMPY,
    BlockRefineContext,
    block_status_chunk,
    block_witness_chunk,
)
from repro.core.counters import NULL_COUNTERS, SkylineCounters
from repro.core.filter_phase import filter_phase
from repro.core.filter_refine import filter_refine_sky
from repro.core.naive import naive_skyline
from repro.graph.generators import copying_power_law, kronecker_graph
from tests.conftest import graphs, power_law_graphs
from tests.property.test_parallel_equivalence import twin_heavy_graphs

COMMON = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

needs_numpy = pytest.mark.skipif(
    not HAVE_NUMPY, reason="the block and bitset kernels need numpy"
)


def assert_auto_matches(g):
    """``auto`` on its own route and forced onto the block route."""
    ref = filter_refine_sky(g)
    naive = naive_skyline(g).skyline
    for cutover in (BLOCK_KERNEL_MIN_CANDIDATES, 0):
        with mock.patch.object(
            block_refine, "BLOCK_KERNEL_MIN_CANDIDATES", cutover
        ):
            auto = neighborhood_skyline(g)
        assert auto.skyline == ref.skyline == naive
        assert auto.dominator == ref.dominator
        assert auto.candidates == ref.candidates


@COMMON
@given(graphs())
def test_auto_matches_filter_refine_and_naive(g):
    assert_auto_matches(g)


@COMMON
@given(power_law_graphs())
def test_auto_matches_power_law(g):
    assert_auto_matches(g)


@COMMON
@given(twin_heavy_graphs())
def test_auto_matches_twin_heavy(g):
    assert_auto_matches(g)


@needs_numpy
def test_auto_routes_rmat_to_block():
    g = kronecker_graph(10, 8, initiator=(0.57, 0.19, 0.19, 0.05), seed=7)
    c_filter = SkylineCounters()
    candidates, _ = filter_phase(g, counters=c_filter)
    assert len(candidates) > BLOCK_KERNEL_MIN_CANDIDATES

    c_auto, c_ref = SkylineCounters(), SkylineCounters()
    auto = neighborhood_skyline(g, counters=c_auto)
    ref = filter_refine_sky(g, counters=c_ref)
    assert auto.skyline == ref.skyline
    assert auto.dominator == ref.dominator
    assert auto.candidates == ref.candidates
    assert auto.algorithm == "FilterRefineSkyAuto(block)"
    assert c_auto.extra["refine_path"] == "block"
    assert c_auto.extra["refine_requested"] == "auto"
    # One filter phase: its tallies appear once, not twice.
    assert (
        c_auto.extra["filter_pretest_rejects"]
        == c_filter.extra["filter_pretest_rejects"]
    )
    assert c_auto.vertices_examined == c_ref.vertices_examined
    assert c_auto.dominations_found == c_ref.dominations_found
    assert (
        c_auto.vertices_examined
        == c_filter.vertices_examined + len(candidates)
    )


def test_small_graphs_stay_on_bitset(karate):
    counters = SkylineCounters()
    result = neighborhood_skyline(karate, counters=counters)
    expected = "bitset" if HAVE_NUMPY else "bloom"
    assert counters.extra["refine_path"] == expected
    assert result.algorithm == f"FilterRefineSkyAuto({expected})"


def brute_force_passes(g, candidates, dominator):
    """The status and witness passes, replayed one pair at a time.

    Status: a candidate is dominated iff some filter-phase survivor in
    its 2-hop neighborhood settles it.  Witness: the first settling
    entry of the sequential scan (``v`` ascending in ``N(u)``, ``w``
    ascending in ``N(v)``), skipping filter-dominated ``w`` and
    refine-dominated ``w < u``.
    """
    nbrs = [set(g.neighbors(u)) for u in range(g.num_vertices)]
    deg = [len(s) for s in nbrs]
    survivor = [dominator[u] == u for u in range(g.num_vertices)]

    def settles(u, w):
        return (
            w != u
            and deg[w] >= deg[u]
            and nbrs[u] <= nbrs[w]
            and (deg[w] > deg[u] or w < u)
        )

    def scan(u, skip):
        for v in sorted(nbrs[u]):
            for w in sorted(nbrs[v]):
                if not skip(w) and settles(u, w):
                    return w
        return None

    dominated = [
        u
        for u in candidates
        if scan(u, lambda w: not survivor[w]) is not None
    ]
    refine_dominated = set(dominated)
    witnesses = [
        (
            u,
            scan(
                u,
                lambda w, u=u: not survivor[w]
                or (w < u and w in refine_dominated),
            ),
        )
        for u in dominated
    ]
    return dominated, witnesses


def brute_force_skip_tallies(g, candidates, dominator, dominated):
    """``(degree_skips, dominated_skips)`` of a status scan of every
    candidate's whole 2-hop neighborhood plus a witness scan of every
    dominated one's — the totals the block kernel reports."""
    deg = [g.degree(u) for u in range(g.num_vertices)]
    refine_dominated = set(dominated)
    degree_skips = dominated_skips = 0
    for witness, us in ((False, candidates), (True, dominated)):
        for u in us:
            for v in g.neighbors(u):
                for w in g.neighbors(v):
                    if w == u:
                        continue
                    if deg[w] < deg[u]:
                        degree_skips += 1
                    elif dominator[w] != w or (
                        witness and w < u and w in refine_dominated
                    ):
                        dominated_skips += 1
    return degree_skips, dominated_skips


def assert_batched_passes_match_brute_force(g):
    candidates, dominator = filter_phase(g)
    dominated, witnesses = brute_force_passes(g, candidates, dominator)
    tallies = brute_force_skip_tallies(g, candidates, dominator, dominated)
    for budget in (1, block_refine.BLOCK_ENTRY_BUDGET):
        ctx = BlockRefineContext(
            g, candidates, dominator, entry_budget=budget
        )
        stats = SkylineCounters()
        assert block_status_chunk(ctx, 0, len(candidates), stats) == dominated
        ctx.ensure_refine_dominated(dominated)
        assert block_witness_chunk(ctx, dominated, stats) == witnesses
        assert (stats.degree_skips, stats.dominated_skips) == tallies
        # Uninstrumented scans reach the same verdicts.
        ctx = BlockRefineContext(
            g, candidates, dominator, entry_budget=budget
        )
        assert (
            block_status_chunk(ctx, 0, len(candidates), NULL_COUNTERS)
            == dominated
        )
        ctx.ensure_refine_dominated(dominated)
        assert block_witness_chunk(ctx, dominated, NULL_COUNTERS) == witnesses


@needs_numpy
@COMMON
@given(st.one_of(graphs(), power_law_graphs(), twin_heavy_graphs()))
def test_batched_passes_match_brute_force(g):
    assert_batched_passes_match_brute_force(g)


@needs_numpy
@pytest.mark.parametrize("n,seed", [(100, 9), (200, 19), (400, 1), (400, 7)])
def test_batched_passes_match_brute_force_copying(n, seed):
    # Copying-model graphs nest neighborhoods deeply.  On these seeds
    # some candidate's smallest settling w is itself refine-dominated
    # and below it, so a witness pass that ignored the skip predicate
    # would write the wrong dominator.
    assert_batched_passes_match_brute_force(copying_power_law(n, seed=seed))
