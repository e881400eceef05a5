"""Differential safety net for the batched marginal-gain kernel.

``gain_batch`` is a pure execution knob: for every batch width the
batched eager round loop and the batched CELF drain must return the
*same* group, gains (float ``==``),
``evaluations`` and ``evaluations_saved`` as the scalar engines — the
batched kernel replays the scalar BFS emission order bit for bit (see
:mod:`repro.paths.csr`), and the batched drain replays the scalar heap
evolution pop for pop.  These tests enforce the claim on
hypothesis-generated graphs, on every registered dataset, and across
batch widths including 1 (forced scalar), a non-divisor width, a wide
64-lane drain and the whole vertex set.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.centrality.greedy import greedy_maximize
from repro.centrality.group_betweenness_max import base_gb
from repro.centrality.group_closeness_max import ClosenessObjective
from repro.centrality.group_harmonic_max import HarmonicObjective
from repro.centrality.lazy_greedy import lazy_greedy_maximize
from repro.core.counters import SkylineCounters
from repro.workloads import load, names
from tests.conftest import graphs

COMMON = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Batch widths every equivalence test sweeps: forced scalar, a
#: non-divisor width (partial last lane), a wide 64-lane drain, and
#: "every candidate in one call".
WIDTHS = (1, 3, 64, "n")


class HalfDropObjective:
    """A custom objective with no ``csr_kernel`` tag.

    Exercises the *generic* batched kernel (batched BFS, Python
    ``gain_weight`` per improvement) rather than the fused closeness /
    harmonic reductions.  A vertex at distance ``d`` from the group is
    worth ``w(d) = 0.5 * max(0, HORIZON - d)`` (unreachable: 0), so the
    objective is a facility-location sum of a non-increasing ``w``:
    submodular, which the CELF drain needs to agree with the eager scan.
    Every value is a multiple of 0.5, so float sums are exact in any
    order.
    """

    name = "half-drop"
    HORIZON = 8

    def _worth(self, dist: int) -> float:
        if dist == -1:
            return 0.0
        return 0.5 * max(0, self.HORIZON - dist)

    def gain_weight(self, old: int, new: int) -> float:
        return self._worth(new) - self._worth(old)


def make_objective(graph, measure):
    if measure == "closeness":
        return ClosenessObjective(graph)
    if measure == "harmonic":
        return HarmonicObjective()
    return HalfDropObjective()


def widths_for(graph):
    return [n if w == "n" else w for w in WIDTHS for n in
            [max(1, graph.num_vertices)]]


def assert_same_result(a, b):
    assert a.group == b.group
    assert a.gains == b.gains  # float ==, not approx
    assert a.evaluations == b.evaluations
    assert a.evaluations_saved == b.evaluations_saved
    assert a.pool_size == b.pool_size


MEASURES = st.sampled_from(["closeness", "harmonic", "generic"])


@COMMON
@given(graphs(), st.integers(min_value=0, max_value=6), MEASURES)
def test_batched_eager_matches_scalar_eager(g, k, measure):
    objective = make_objective(g, measure)
    scalar = greedy_maximize(g, k, objective, gain_batch=1)
    for width in widths_for(g):
        assert_same_result(
            greedy_maximize(g, k, objective, gain_batch=width), scalar
        )


@COMMON
@given(graphs(), st.integers(min_value=0, max_value=6), MEASURES)
def test_batched_lazy_matches_scalar_lazy_and_eager(g, k, measure):
    objective = make_objective(g, measure)
    scalar_lazy = lazy_greedy_maximize(g, k, objective, gain_batch=1)
    eager = greedy_maximize(g, k, objective, gain_batch=1)
    for width in widths_for(g):
        batched = lazy_greedy_maximize(g, k, objective, gain_batch=width)
        assert_same_result(batched, scalar_lazy)
        # The CELF invariant must survive batching verbatim.
        assert batched.group == eager.group
        assert batched.gains == eager.gains
        assert (
            batched.evaluations + batched.evaluations_saved
            == eager.evaluations
        )


@COMMON
@given(graphs(max_vertices=14), st.sampled_from(["closeness", "harmonic"]))
def test_k_beyond_pool_batched_fallback(g, measure):
    # A pool smaller than k forces the heap-dry rebuild from V \ S;
    # the batched scope scan must match the scalar one there too.
    if g.num_vertices == 0:
        return
    pool = list(range(min(2, g.num_vertices)))
    k = g.num_vertices + 3
    objective = make_objective(g, measure)
    scalar = lazy_greedy_maximize(
        g, k, objective, candidates=pool, gain_batch=1
    )
    for width in (3, max(1, g.num_vertices)):
        assert_same_result(
            lazy_greedy_maximize(
                g, k, objective, candidates=pool, gain_batch=width
            ),
            scalar,
        )


@COMMON
@given(graphs(), st.sampled_from([2, 4]), MEASURES)
def test_batch_counters_account_for_every_lane(g, k, measure):
    if g.num_vertices < 4:
        return
    objective = make_objective(g, measure)
    counters = SkylineCounters()
    result = lazy_greedy_maximize(
        g, k, objective, gain_batch=3, counters=counters
    )
    extra = counters.extra
    assert extra["gain_batch"] == 3
    # Every computed lane is either consumed as a charged evaluation or
    # short-circuited by the drain ending first — nothing vanishes.
    assert (
        extra["lanes_evaluated"] - extra["lanes_short_circuited"]
        == result.evaluations
    )
    assert extra["batch_rounds"] >= 1
    assert extra["lanes_evaluated"] >= result.evaluations


@pytest.mark.parametrize("name", names())
def test_batched_matches_scalar_on_registered_datasets(name):
    g = load(name)
    rng = random.Random(7)
    pool = sorted(rng.sample(range(g.num_vertices),
                             min(24, g.num_vertices)))
    measure = "harmonic" if hash(name) % 2 else "closeness"
    objective = make_objective(g, measure)
    scalar = lazy_greedy_maximize(
        g, 4, objective, candidates=pool, gain_batch=1
    )
    for width in (3, 64):
        assert_same_result(
            lazy_greedy_maximize(
                g, 4, objective, candidates=pool, gain_batch=width
            ),
            scalar,
        )
    assert_same_result(
        lazy_greedy_maximize(g, 4, objective, candidates=pool),
        scalar,
    )  # the auto width too


def test_betweenness_objective_unaffected_by_batch_plane():
    # Group betweenness has no distance-improvement stream, so it has
    # no batched plane; its eager/lazy equivalence (the property the
    # batch work must not disturb) still holds.
    g = load("karate")
    eager = base_gb(g, 4, strategy="eager")
    lazy = base_gb(g, 4, strategy="lazy")
    assert lazy.group == eager.group
    assert lazy.scores == eager.scores
    assert lazy.evaluations + lazy.evaluations_saved == eager.evaluations
