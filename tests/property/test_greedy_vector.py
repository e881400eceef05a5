"""Differential safety net for the greedy's vector gain kernels.

The default lazy (CELF) driver scores round 0 with the bitset kernel
(:meth:`~repro.paths.csr.CSRTraversal.first_round_gains`) and every
later scan with :meth:`~repro.paths.csr.CSRTraversal.adaptive_eval`,
which hands big scans to the vector scan.  Those kernels replay the
scalar BFS emission order bit for bit (see :mod:`repro.paths.csr`), so
the default driver must return the *same* group, gains (compared by
``float.hex``), ``evaluations`` and ``evaluations_saved`` as the lazy
driver confined to the scalar kernels, and the same group, gains and
``evaluations + evaluations_saved`` as the scalar eager reference.
These tests enforce the claim on hypothesis-generated graphs, on every
registered dataset, and on graphs below 256 vertices, which used to
run the scalar kernels only.
"""

import contextlib
import random
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.centrality.greedy import greedy_maximize
from repro.centrality.group_betweenness_max import base_gb
from repro.centrality.group_closeness_max import ClosenessObjective
from repro.centrality.group_harmonic_max import HarmonicObjective
from repro.centrality.lazy_greedy import lazy_greedy_maximize
from repro.core.api import neighborhood_skyline
from repro.core.counters import SkylineCounters
from repro.graph.adjacency import Graph
from repro.paths.csr import CSRTraversal
from repro.workloads import load, names
from tests.conftest import graphs, scan_edge_budget

COMMON = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def make_objective(graph, measure):
    if measure == "closeness":
        return ClosenessObjective(graph)
    return HarmonicObjective()


@contextlib.contextmanager
def scalar_kernels():
    """Confine the lazy driver to the scalar kernels: round 0 scores one
    scalar scan per source, and no adaptive scan is handed off (the
    edge budget is ``sys.maxsize``)."""

    def scalar_first_round(self, sources, objective):
        empty = [self.n] * self.n  # the scalar scan's "unreachable"
        return [
            self.adaptive_eval(s, empty, None, objective)[0]
            for s in sources
        ]

    with mock.patch.object(
        CSRTraversal, "first_round_gains", scalar_first_round
    ), scan_edge_budget(sys.maxsize):
        yield


def scalar_lazy(graph, k, objective, **kwargs):
    # A fresh graph object: an earlier default run on ``graph`` has
    # memoized its round-0 gains, which would skip the scalar round 0.
    cold = Graph.from_arrays(*graph.csr_arrays())
    with scalar_kernels():
        return lazy_greedy_maximize(cold, k, objective, **kwargs)


def vector_eager(graph, k, objective):
    """The eager round loop with every candidate scored on the vector
    scan (``adaptive_eval`` with the edge budget patched to 0)."""
    n = graph.num_vertices
    trav = CSRTraversal(graph)
    dist = [n] * n  # n = unreachable for the scalar scan, -1 for dist_nd
    dist_nd = np.full(n, -1, dtype=np.int32)
    group, gains = [], []
    with scan_edge_budget(0):
        for _round in range(min(k, n)):
            best_u, best_gain = -1, float("-inf")
            for u in range(n):
                if u in group:
                    continue
                gain, _ = trav.adaptive_eval(u, dist, dist_nd, objective)
                if gain > best_gain:
                    best_u, best_gain = u, gain
            _gain, updates = trav.adaptive_eval(
                best_u, dist, dist_nd, objective, True
            )
            for v, new in updates:
                dist[v] = new
                dist_nd[v] = new
            group.append(best_u)
            gains.append(best_gain)
    return tuple(group), tuple(gains)


def hexes(gains):
    return [g.hex() for g in gains]


def assert_same_result(a, b):
    assert a.group == b.group
    assert hexes(a.gains) == hexes(b.gains)
    assert a.evaluations == b.evaluations
    assert a.evaluations_saved == b.evaluations_saved
    assert a.pool_size == b.pool_size


def assert_lazy_equals_eager(lazy, eager):
    assert lazy.strategy == "lazy"
    assert lazy.group == eager.group
    assert hexes(lazy.gains) == hexes(eager.gains)
    assert lazy.evaluations + lazy.evaluations_saved == eager.evaluations


def with_isolated(graph, extra):
    """``graph`` with ``extra`` isolated vertices after each vertex."""
    step = extra + 1
    edges = [(u * step, v * step) for u, v in graph.edges()]
    return Graph.from_edges(max(1, graph.num_vertices) * step, edges)


MEASURES = st.sampled_from(["closeness", "harmonic"])


@COMMON
@given(graphs(), st.integers(min_value=0, max_value=6), MEASURES)
def test_batched_eager_matches_scalar_eager(g, k, measure):
    objective = make_objective(g, measure)
    eager = greedy_maximize(g, k, objective)
    group, gains = vector_eager(g, k, objective)
    assert group == eager.group
    assert hexes(gains) == hexes(eager.gains)


@COMMON
@given(graphs(), st.integers(min_value=0, max_value=6), MEASURES)
def test_batched_lazy_matches_scalar_lazy_and_eager(g, k, measure):
    objective = make_objective(g, measure)
    default = lazy_greedy_maximize(g, k, objective)
    assert_same_result(default, scalar_lazy(g, k, objective))
    # The CELF invariant holds on the production path verbatim.
    assert_lazy_equals_eager(default, greedy_maximize(g, k, objective))


@COMMON
@given(graphs(max_vertices=14), st.sampled_from(["closeness", "harmonic"]))
def test_k_beyond_pool_batched_fallback(g, measure):
    # A pool smaller than k forces the heap-dry rebuild from V \ S;
    # the rebuild's adaptive scans must match the scalar ones there too.
    if g.num_vertices == 0:
        return
    pool = list(range(min(2, g.num_vertices)))
    k = g.num_vertices + 3
    objective = make_objective(g, measure)
    default = lazy_greedy_maximize(g, k, objective, candidates=pool)
    assert_same_result(
        default, scalar_lazy(g, k, objective, candidates=pool)
    )
    assert_lazy_equals_eager(
        default, greedy_maximize(g, k, objective, candidates=pool)
    )


@COMMON
@given(graphs(), st.sampled_from([2, 4]), MEASURES)
def test_batch_counters_account_for_every_lane(g, k, measure):
    if g.num_vertices < 4:
        return
    objective = make_objective(g, measure)
    counters = SkylineCounters()
    result = lazy_greedy_maximize(g, k, objective, counters=counters)
    extra = counters.extra
    # Every gain scan is a charged evaluation; nothing is scored
    # speculatively, so nothing is short-circuited.
    assert extra["lanes_short_circuited"] == 0
    assert extra["lanes_evaluated"] == result.evaluations
    # On a fresh graph round 0 always runs the bitset kernel, whatever
    # the graph size (a repeated call reads the round-0 memo instead).
    assert extra["batch_rounds"] >= 1


@pytest.mark.parametrize("name", names())
def test_batched_matches_scalar_on_registered_datasets(name):
    g = load(name)
    rng = random.Random(7)
    pool = sorted(rng.sample(range(g.num_vertices),
                             min(24, g.num_vertices)))
    measure = "harmonic" if hash(name) % 2 else "closeness"
    objective = make_objective(g, measure)
    default = lazy_greedy_maximize(g, 4, objective, candidates=pool)
    assert_same_result(
        default, scalar_lazy(g, 4, objective, candidates=pool)
    )
    assert_lazy_equals_eager(
        default, greedy_maximize(g, 4, objective, candidates=pool)
    )


@pytest.mark.parametrize("measure", ["closeness", "harmonic"])
@pytest.mark.parametrize("pool_kind", ["full", "skyline"])
@pytest.mark.parametrize("name", ["karate", "bombing_proxy"])
def test_default_lazy_equals_eager_below_old_cutover(name, pool_kind, measure):
    # Graphs below 256 vertices ran the scalar kernels only until the
    # lane-width cutover was deleted; they now take the production path.
    g = load(name)
    assert g.num_vertices < 256
    pool = neighborhood_skyline(g).skyline if pool_kind == "skyline" else None
    objective = make_objective(g, measure)
    for k in (1, 4, 8, len(pool or ()) + 2):
        assert_lazy_equals_eager(
            lazy_greedy_maximize(g, k, objective, candidates=pool),
            greedy_maximize(g, k, objective, candidates=pool),
        )


@COMMON
@given(
    graphs(max_vertices=16),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=2**31),
    MEASURES,
)
def test_default_lazy_equals_eager_isolated_vertices_k_beyond_pool(
    base, extra, seed, measure
):
    g = with_isolated(base, extra)
    rng = random.Random(seed)
    pool = rng.sample(
        range(g.num_vertices), rng.randint(1, min(3, g.num_vertices))
    )
    k = len(pool) + rng.randint(1, 4)
    objective = make_objective(g, measure)
    assert_lazy_equals_eager(
        lazy_greedy_maximize(g, k, objective, candidates=pool),
        greedy_maximize(g, k, objective, candidates=pool),
    )


def test_betweenness_objective_unaffected_by_batch_plane():
    # Group betweenness has no distance-improvement stream, so it has
    # no vector kernels; its eager/lazy equivalence (the property the
    # gain kernels must not disturb) still holds.
    g = load("karate")
    eager = base_gb(g, 4, strategy="eager")
    lazy = base_gb(g, 4, strategy="lazy")
    assert lazy.group == eager.group
    assert lazy.scores == eager.scores
    assert lazy.evaluations + lazy.evaluations_saved == eager.evaluations
