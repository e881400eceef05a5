"""End-to-end integration tests across the whole stack.

These run the realistic pipelines a user of the library would run —
registry dataset → skyline → pruned application → verified output —
at sizes big enough to exercise every code path but small enough for CI.
"""

import io

import pytest

from repro import neighborhood_skyline
from repro.centrality import (
    base_gc,
    base_gh,
    group_closeness,
    group_harmonic,
    neisky_gc,
    neisky_gh,
)
from repro.clique import (
    base_topk_mcc,
    is_clique,
    mc_brb,
    neisky_mc,
    neisky_topk_mcc,
)
from repro.core import base_sky, filter_refine_sky
from repro.graph.components import largest_connected_component
from repro.graph.io import read_edge_list, write_edge_list
from repro.workloads import load


@pytest.fixture(scope="module")
def wikitalk():
    return load("wikitalk_sim")


@pytest.fixture(scope="module")
def pokec():
    return load("pokec_sim")


class TestSkylinePipeline:
    def test_fast_and_slow_agree_on_registry_graph(self, wikitalk):
        fast = filter_refine_sky(wikitalk)
        slow = base_sky(wikitalk)
        assert fast.skyline == slow.skyline

    def test_skyline_fraction_matches_paper_shape(self, wikitalk):
        result = filter_refine_sky(wikitalk)
        # Paper: 8% on WikiTalk; the stand-in is tuned to that regime.
        assert result.size / wikitalk.num_vertices < 0.15

    def test_io_roundtrip_preserves_skyline(self, wikitalk):
        buffer = io.StringIO()
        write_edge_list(wikitalk, buffer)
        buffer.seek(0)
        reloaded = read_edge_list(buffer)
        assert (
            filter_refine_sky(reloaded).skyline
            == filter_refine_sky(wikitalk).skyline
        )


class TestCentralityPipeline:
    @pytest.fixture(scope="class")
    def community(self, wikitalk):
        lcc, _ = largest_connected_component(wikitalk)
        # Work on the core so the BFS rounds stay cheap.
        from repro.graph.sampling import sample_prefix

        sub = sample_prefix(lcc, 0.15)
        lcc2, _ = largest_connected_component(sub)
        return lcc2

    def test_closeness_pruning_end_to_end(self, community):
        base = base_gc(community, 6)
        sky = neisky_gc(community, 6)
        assert sky.evaluations < base.evaluations
        gc_base = group_closeness(community, base.group)
        gc_sky = group_closeness(community, sky.group)
        assert gc_sky >= 0.95 * gc_base

    def test_harmonic_pruning_end_to_end(self, community):
        base = base_gh(community, 6)
        sky = neisky_gh(community, 6)
        assert sky.evaluations < base.evaluations
        gh_base = group_harmonic(community, base.group)
        gh_sky = group_harmonic(community, sky.group)
        assert gh_sky >= 0.95 * gh_base


class TestCliquePipeline:
    def test_max_clique_on_registry_graph(self, pokec):
        plain = mc_brb(pokec)
        pruned = neisky_mc(pokec)
        assert is_clique(pokec, plain)
        assert is_clique(pokec, pruned)
        assert len(plain) == len(pruned) == 18  # the planted ladder top

    def test_topk_on_registry_graph(self, pokec):
        base = base_topk_mcc(pokec, 3)
        sky = neisky_topk_mcc(pokec, 3)
        assert [len(c) for c in base] == [len(c) for c in sky]
        for clique in base + sky:
            assert is_clique(pokec, clique)


class TestCrossLayerConsistency:
    def test_counters_consistent_with_result(self, wikitalk):
        from repro.core import SkylineCounters

        counters = SkylineCounters()
        result = neighborhood_skyline(wikitalk, counters=counters)
        dominated = wikitalk.num_vertices - result.size
        assert counters.dominations_found == dominated


class TestDeterminism:
    def test_skyline_stable_across_processes(self):
        # The bloom hash is seeded SplitMix64, not Python's salted hash,
        # so results must be bit-identical across interpreter runs.
        import subprocess
        import sys

        code = (
            "from repro import neighborhood_skyline;"
            "from repro.workloads import load;"
            "r = neighborhood_skyline(load('bombing_proxy'));"
            "print(sum(r.skyline), r.size)"
        )
        outputs = {
            subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                check=True,
            ).stdout
            for _ in range(2)
        }
        assert len(outputs) == 1

    def test_greedy_ties_break_to_smaller_id(self):
        from repro.centrality import base_gc
        from repro.graph.generators import cycle_graph

        # Perfect symmetry: every vertex has the same gain in round 1,
        # so the driver must pick vertex 0.
        result = base_gc(cycle_graph(8), 1)
        assert result.group[0] == 0
