"""The ``algorithm="auto"`` default and the block kernel's batched passes.

``neighborhood_skyline``'s default runs the filter phase once and hands
its output to the block refine kernel.  These tests pin it to the
paper's FilterRefineSky and to the naive reference bit for bit; pin its
counters on a seeded R-MAT graph; and check the block kernel's batched
witness pass against a brute-force, pure-Python replay of the
sequential first-settling-entry scan.
"""

from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import block_refine, neighborhood_skyline
from repro.core.api import ALGORITHMS
from repro.core.block_refine import block_refine_pass
from repro.core.counters import NULL_COUNTERS, SkylineCounters
from repro.core.filter_phase import filter_phase
from repro.core.filter_refine import filter_refine_sky
from repro.core.naive import naive_skyline
from repro.graph.csr import edge_index
from repro.graph.generators import copying_power_law, kronecker_graph
from tests.conftest import graphs, power_law_graphs, twin_heavy_graphs

COMMON = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

def assert_auto_matches(g):
    ref = filter_refine_sky(g)
    naive = naive_skyline(g)
    auto = neighborhood_skyline(g)
    assert auto.skyline == ref.skyline == naive.skyline
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


def test_auto_routes_rmat_to_block():
    assert ALGORITHMS["auto"] is ALGORITHMS["filter_refine_block"]
    g = kronecker_graph(10, 8, initiator=(0.57, 0.19, 0.19, 0.05), seed=7)
    c_filter = SkylineCounters()
    candidates, _ = filter_phase(g, counters=c_filter)

    c_auto, c_ref = SkylineCounters(), SkylineCounters()
    auto = neighborhood_skyline(g, counters=c_auto)
    ref = filter_refine_sky(g, counters=c_ref)
    assert auto.skyline == ref.skyline
    assert auto.dominator == ref.dominator
    assert auto.candidates == ref.candidates
    assert auto.algorithm == "FilterRefineSkyBlock"
    # One filter phase: its tallies appear once, not twice.
    assert (
        c_auto.extra["filter_pretest_rejects"]
        == c_filter.extra["filter_pretest_rejects"]
    )
    assert c_auto.vertices_examined == g.num_vertices + len(candidates)
    assert c_auto.dominations_found == c_ref.dominations_found
    # The refine adds no skip tallies: those are the filter phase's.
    assert c_auto.degree_skips == c_filter.degree_skips
    assert c_auto.dominated_skips == c_filter.dominated_skips
    assert (
        c_auto.vertices_examined
        == c_filter.vertices_examined + len(candidates)
    )


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


def assert_batched_passes_match_brute_force(g):
    candidates, dominator = filter_phase(g)
    dominated, witnesses = brute_force_passes(g, candidates, dominator)
    expected = list(dominator)
    for u, w in witnesses:
        expected[u] = w
    for budget in (1, block_refine.BLOCK_ENTRY_BUDGET):
        # Counted and uncounted runs take the same path to the same
        # verdicts and witnesses.
        for stats in (SkylineCounters(), NULL_COUNTERS):
            out = list(dominator)
            with mock.patch.object(block_refine, "BLOCK_ENTRY_BUDGET", budget):
                assert (
                    block_refine_pass(edge_index(g), candidates, out, stats)
                    == dominated
                )
            assert out == expected


@COMMON
@given(st.one_of(graphs(), power_law_graphs(), twin_heavy_graphs()))
def test_batched_passes_match_brute_force(g):
    assert_batched_passes_match_brute_force(g)


@pytest.mark.parametrize("n,seed", [(100, 9), (200, 19), (400, 1), (400, 7)])
def test_batched_passes_match_brute_force_copying(n, seed):
    # Copying-model graphs nest neighborhoods deeply.  On these seeds
    # some candidate's smallest settling w is itself refine-dominated
    # and below it, so a witness pass that ignored the skip predicate
    # would write the wrong dominator.
    assert_batched_passes_match_brute_force(copying_power_law(n, seed=seed))
