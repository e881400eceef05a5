"""Differential tests for the lazy greedy's round-0 memo.

Against an empty group a candidate's gain is its own closeness or
harmonic sum, a property of the graph, so
:mod:`repro.centrality.lazy_greedy` memoizes it on the graph object and
later calls score only the pool vertices no earlier call has scored.
Every call on a warm graph must return exactly what the same call
returns on a fresh, equal graph object (group, gains by ``float.hex``,
``evaluations``, ``evaluations_saved``, ``pool_size``), and the group
and gains of the eager reference driver, which never reads the memo.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.centrality import base_gc, base_gh, lazy_greedy, neisky_gc, neisky_gh
from repro.centrality.greedy import greedy_maximize
from repro.centrality.group_closeness_max import ClosenessObjective
from repro.centrality.group_harmonic_max import HarmonicObjective
from repro.centrality.lazy_greedy import lazy_greedy_maximize
from repro.core.api import neighborhood_skyline
from repro.core.counters import SkylineCounters
from repro.core.deadline import DeadlineExceeded, deadline
from repro.errors import ParameterError
from repro.graph.adjacency import Graph
from repro.graph.generators import (
    barabasi_albert,
    copying_power_law,
    erdos_renyi,
)
from repro.graph.karate import karate_club
from repro.paths.csr import CSRTraversal
from tests.conftest import graphs

MEASURES = ("closeness", "harmonic")


def fresh(graph: Graph) -> Graph:
    """An equal graph object with nothing memoized on it."""
    return Graph.from_arrays(*graph.csr_arrays())


def objective_for(graph, measure):
    if measure == "closeness":
        return ClosenessObjective(graph)
    return HarmonicObjective()


def fields(result):
    return (
        result.group,
        tuple(g.hex() for g in result.gains),
        result.evaluations,
        result.evaluations_saved,
        result.pool_size,
    )


def with_isolated(graph: Graph, extra: int) -> Graph:
    """``graph`` plus ``extra`` isolated vertices at the end."""
    return Graph.from_edges(graph.num_vertices + extra, graph.edges())


def memo_snapshot(graph):
    """The memo's arrays by key: the objects and a copy of their values."""
    memo = graph._round0 or {}
    return {key: (arr, arr.copy()) for key, arr in memo.items()}


def assert_memo_unchanged(graph, snapshot):
    memo = graph._round0 or {}
    assert memo.keys() == snapshot.keys()
    for key, (arr, values) in snapshot.items():
        assert memo[key] is arr
        np.testing.assert_array_equal(arr, values)


def check_call(graph, k, measure, pool=None):
    """One lazy call on ``graph`` (memo as it stands), checked against a
    fresh graph's lazy call and the eager reference."""
    got = lazy_greedy_maximize(
        graph, k, objective_for(graph, measure), candidates=pool
    )
    cold_graph = fresh(graph)
    cold = lazy_greedy_maximize(
        cold_graph, k, objective_for(cold_graph, measure), candidates=pool
    )
    assert fields(got) == fields(cold)
    eager = greedy_maximize(
        graph, k, objective_for(graph, measure), candidates=pool
    )
    assert got.group == eager.group
    assert [g.hex() for g in got.gains] == [g.hex() for g in eager.gains]
    assert got.pool_size == eager.pool_size
    assert got.evaluations + got.evaluations_saved == eager.evaluations
    return got


GRAPHS = {
    "karate": karate_club,
    "power_law": lambda: copying_power_law(60, 2.5, 0.85, seed=7),
    "er_isolated": lambda: with_isolated(erdos_renyi(40, 0.05, seed=3), 3),
    "csr_power_law": lambda: copying_power_law(50, 2.3, 0.9, seed=11),
}


@pytest.mark.parametrize("measure", MEASURES)
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_repeated_and_interleaved_calls_match_fresh_and_eager(name, measure):
    g = GRAPHS[name]()
    n = g.num_vertices
    skyline = list(neighborhood_skyline(g).skyline)
    subset = skyline[: max(1, len(skyline) // 2)]
    superset = sorted(set(skyline) | set(range(0, n, 3)))
    other = "harmonic" if measure == "closeness" else "closeness"
    pools = (skyline, None, subset, superset, skyline, None)
    for pool in pools:
        size = n if pool is None else len(pool)
        for k in (1, 3, size):
            check_call(g, k, measure, pool)
            # Interleave the other measure on the same graph object.
            check_call(g, min(k, 4), other, pool)


@pytest.mark.parametrize("measure", MEASURES)
def test_base_after_neisky_on_one_graph(measure):
    g = copying_power_law(80, 2.5, 0.85, seed=3)
    sky_run, base_run = (
        (neisky_gc, base_gc) if measure == "closeness" else (neisky_gh, base_gh)
    )
    skyline = neighborhood_skyline(g).skyline
    cold = fresh(g)
    for k in (2, 6):
        assert fields(sky_run(g, k, skyline=skyline)) == fields(
            sky_run(fresh(g), k, skyline=skyline)
        )
        assert fields(base_run(g, k)) == fields(base_run(cold, k))
    assert fields(base_run(g, 6)) == fields(base_run(fresh(g), 6))


@pytest.mark.parametrize("measure", MEASURES)
def test_disconnected_graph_with_isolated_vertices(measure):
    # Unreachable vertices carry the closeness penalty n, so an
    # isolated vertex's empty-group gain is n (harmonic: 0).
    g = with_isolated(
        Graph.from_edges(
            9, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (6, 7)]
        ),
        4,
    )
    n = g.num_vertices
    for pool in ([8, 9, 10], [0, 3, 6, 8, 12], None, [12, 8]):
        for k in (1, 2, n):
            check_call(g, k, measure, pool)


@pytest.mark.parametrize("measure", MEASURES)
def test_pool_runs_dry_rebuild(measure):
    # k beyond the pool: the heap runs dry and the driver falls back to
    # all of V \ S against a non-empty group (never the memo).
    g = copying_power_law(40, 2.5, 0.85, seed=5)
    for pool in ([7, 21], [7, 21, 30, 31], [3]):
        for k in (len(pool) + 1, len(pool) + 5, g.num_vertices):
            check_call(g, k, measure, pool)


@pytest.mark.parametrize("measure", MEASURES)
def test_memo_holds_exactly_the_scored_vertices(measure):
    g = copying_power_law(50, 2.5, 0.85, seed=2)
    objective = objective_for(g, measure)
    lazy_greedy_maximize(g, 2, objective, candidates=[4, 9, 17])
    (key,) = g._round0
    memo = g._round0[key]
    scored = np.flatnonzero(~np.isnan(memo)).tolist()
    assert scored == [4, 9, 17]
    expected = CSRTraversal(fresh(g)).first_round_gains(
        [4, 9, 17], objective
    )
    assert [float(x).hex() for x in memo[scored]] == [
        x.hex() for x in expected
    ]
    # A superset call scores only the missing vertices, in one chunk.
    counters = SkylineCounters()
    lazy_greedy_maximize(
        g, 1, objective, candidates=[4, 9, 17, 30], counters=counters
    )
    assert counters.extra["batch_rounds"] == 1
    assert np.flatnonzero(~np.isnan(g._round0[key])).tolist() == [
        4, 9, 17, 30
    ]


@pytest.mark.parametrize("measure", MEASURES)
def test_fully_warm_call_runs_no_vector_kernel(measure):
    g = karate_club()
    objective = objective_for(g, measure)
    first, second = SkylineCounters(), SkylineCounters()
    cold = lazy_greedy_maximize(g, 5, objective, counters=first)
    warm = lazy_greedy_maximize(g, 5, objective, counters=second)
    assert fields(warm) == fields(cold)
    assert first.extra["batch_rounds"] >= 1
    # Karate's later scans stay under the edge budget, so a warm call
    # dispatches no vectorized pass at all.
    assert second.extra["batch_rounds"] == 0
    assert second.extra["lanes_evaluated"] == warm.evaluations


def test_closeness_penalty_is_part_of_the_key():
    # An objective built for another vertex count values unreachable
    # vertices differently, so it must not read the same entries.
    g = with_isolated(karate_club(), 2)
    own = ClosenessObjective(g)
    other = ClosenessObjective(karate_club())
    a = lazy_greedy_maximize(g, 3, own)
    b = lazy_greedy_maximize(g, 3, other)
    assert set(g._round0) == {("closeness", own.penalty),
                              ("closeness", other.penalty)}
    assert fields(b) == fields(lazy_greedy_maximize(fresh(g), 3, other))
    assert fields(a) == fields(lazy_greedy_maximize(fresh(g), 3, own))


def test_objective_without_kernel_never_touches_the_memo():
    # The lazy driver has no kernel for an untagged objective: it
    # rejects it before round 0, so the memo is never created.
    class Unit:
        name = "unit"

        def gain_weight(self, old, new):
            return 1.0 if old == -1 else 0.0

    g = karate_club()
    with pytest.raises(ParameterError, match='strategy="eager"'):
        lazy_greedy_maximize(g, 3, Unit())
    assert g._round0 is None


@pytest.mark.parametrize("measure", MEASURES)
def test_deadline_inside_round_zero_leaves_memo_unchanged(
    measure, monkeypatch
):
    g = barabasi_albert(300, 4, seed=1)
    objective = objective_for(g, measure)
    lazy_greedy_maximize(g, 1, objective, candidates=range(0, 300, 7))
    before = memo_snapshot(g)
    # Skip the driver's own round-top check so that the deadline fires
    # at the first BFS level inside the round-0 kernel.
    with monkeypatch.context() as patch:
        patch.setattr(lazy_greedy, "check_deadline", lambda: None)
        levels = []
        kernel = CSRTraversal._level_histograms

        def recording(self, sources):
            levels.append(len(sources))
            return kernel(self, sources)

        patch.setattr(CSRTraversal, "_level_histograms", recording)
        with deadline(0.0):
            with pytest.raises(DeadlineExceeded):
                lazy_greedy_maximize(g, 4, objective)
        # Only the vertices the first call left unscored were sent.
        assert levels == [300 - len(range(0, 300, 7))]
    assert_memo_unchanged(g, before)
    check_call(g, 4, measure)


@pytest.mark.parametrize("measure", MEASURES)
def test_fault_mid_round_zero_leaves_memo_unchanged(measure, monkeypatch):
    g = copying_power_law(60, 2.5, 0.85, seed=4)
    objective = objective_for(g, measure)
    lazy_greedy_maximize(g, 2, objective, candidates=[1, 2, 3])
    before = memo_snapshot(g)

    def failing(self, sources, objective):
        raise RuntimeError("injected round-0 fault")

    with monkeypatch.context() as patch:
        patch.setattr(CSRTraversal, "first_round_gains", failing)
        with pytest.raises(RuntimeError, match="injected"):
            lazy_greedy_maximize(g, 2, objective)
        # A fully warm pool never reaches the kernel.
        lazy_greedy_maximize(g, 2, objective, candidates=[3, 1])
    assert_memo_unchanged(g, before)
    check_call(g, 5, measure)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    graphs(),
    st.lists(
        st.tuples(
            st.sampled_from(MEASURES),
            st.integers(min_value=0, max_value=8),
            st.one_of(
                st.none(), st.sets(st.integers(min_value=0, max_value=23))
            ),
        ),
        min_size=1,
        max_size=5,
    ),
)
def test_any_call_sequence_matches_fresh_and_eager(g, calls):
    n = g.num_vertices
    for measure, k, pool in calls:
        if pool is not None:
            pool = sorted(u for u in pool if u < n)
        check_call(g, k, measure, pool)
    for key, arr in (g._round0 or {}).items():
        assert arr.shape == (n,)
        assert not np.isinf(arr).any()
        assert all(math.isnan(x) or x >= 0.0 for x in arr.tolist())
