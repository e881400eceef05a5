"""Differential tests for the adaptive single-candidate gain evaluator.

:meth:`~repro.paths.csr.CSRTraversal.adaptive_eval` runs the scalar
pruned scan under an edge-visit budget and hands scans that run past it
to the vector scan.  Whichever path runs, it must return the *bitwise
same* ``(gain, updates)`` as the unbudgeted scalar kernel
(``budget=-1``, which never hands off), hand its distance list back
exactly as it found it (the scalar scan lowers it in place), and leave
the vector scratch clean for the next traversal.  The budget is forced
to 0 (every scan with an edge hands off), to a huge value (none does)
and to random values, against the committed distance vector of a
random group.

Two more legs pin what the lazy (CELF) driver builds on the evaluator:
the harmonic fold stays the scalar left-to-right chain even when the
builtin ``sum`` compensates (Python 3.12+), and the default lazy
greedy equals the eager reference on benchmark-sized graphs.
"""

import builtins
import math
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.centrality.group_closeness_max import ClosenessObjective
from repro.centrality.group_harmonic_max import HarmonicObjective
from repro.core.api import group_centrality_maximize, neighborhood_skyline
from repro.graph.generators import copying_power_law, kronecker_graph
from repro.paths.bfs import multi_source_distances
from repro.paths.csr import CSRTraversal
from repro.paths.truncated import improvements
from tests.conftest import graphs

COMMON = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

MEASURES = st.sampled_from(["closeness", "harmonic", "generic"])

#: Larger than any edge count a test graph can have.
NO_HANDOFF = 1 << 40


class InverseSquareObjective:
    """An untagged objective: drives the generic ``gain_weight`` path.

    Its terms are not exact binary fractions, so any fold other than the
    scalar's left-to-right order shows up in the last bits.
    """

    name = "inverse-square"

    def gain_weight(self, old: int, new: int) -> float:
        old_term = 0.0 if old == -1 else 1.0 / (old * old + 1)
        return 1.0 / (new * new + 1) - old_term


def make_objective(graph, measure):
    if measure == "closeness":
        return ClosenessObjective(graph)
    if measure == "harmonic":
        return HarmonicObjective()
    return InverseSquareObjective()


def committed(graph, seed):
    """``d(v, S)`` for a random group ``S``, ``-1`` for unreachable (all
    ``-1`` when empty)."""
    rng = random.Random(seed)
    n = graph.num_vertices
    group = rng.sample(range(n), rng.randint(0, min(4, n)))
    if not group:
        return [-1] * n
    return multi_source_distances(graph, group)


def scan_dist(current):
    """``current`` in the scalar scan's convention: ``n`` for
    unreachable instead of ``-1``."""
    n = len(current)
    return [n if d == -1 else d for d in current]


def scalar_eval(trav, source, current, objective, collect=False):
    """The scalar reference: no edge budget, so never a hand-off."""
    return trav.adaptive_eval(
        source, scan_dist(current), None, objective, collect, budget=-1
    )


def assert_same(got, want):
    assert got[0].hex() == want[0].hex()
    assert got[1] == want[1]


def assert_restored(trav, dist, before):
    assert dist == before
    if trav._vec_dist is not None:
        assert bool((trav._vec_dist == -2).all())


def handoffs_at_zero_budget(graph, current):
    """Sources whose scan visits any edge: every source not in the
    committed group with a nonzero degree."""
    return [
        u for u in graph.vertices()
        if not (current[u] != -1 and current[u] <= 0)
        and graph.degree(u) > 0
    ]


@COMMON
@given(
    graphs(),
    MEASURES,
    st.integers(min_value=0, max_value=2**31),
    st.sampled_from([0, NO_HANDOFF, "random"]),
)
def test_adaptive_matches_scalar_bitwise(g, measure, seed, budget_kind):
    objective = make_objective(g, measure)
    trav = CSRTraversal(g)
    current = committed(g, seed)
    current_nd = np.array(current, dtype=np.int32)
    dist = scan_dist(current)
    before = list(dist)
    rng = random.Random(seed)
    for u in g.vertices():
        if budget_kind == "random":
            budget = rng.randint(0, 2 * g.num_edges + 1)
        else:
            budget = budget_kind
        for collect in (False, True):
            got = trav.adaptive_eval(
                u, dist, current_nd, objective, collect, budget=budget
            )
            assert_restored(trav, dist, before)
            want = scalar_eval(trav, u, current, objective, collect)
            assert_same(got, want)


@COMMON
@given(graphs(), st.integers(min_value=0, max_value=2**31))
def test_budget_zero_hands_off_and_huge_budget_never(g, seed):
    objective = HarmonicObjective()
    current = committed(g, seed)
    current_nd = np.array(current, dtype=np.int32)
    for budget, expected in (
        (0, handoffs_at_zero_budget(g, current)),
        (NO_HANDOFF, []),
    ):
        trav = CSRTraversal(g)
        dist = scan_dist(current)
        for u in g.vertices():
            trav.adaptive_eval(u, dist, current_nd, objective,
                               budget=budget)
        assert trav.vector_dispatches == len(expected)


def compensated_sum(iterable, start=0):
    """Neumaier summation, as the builtin ``sum`` of floats does since
    Python 3.12: the result differs from a left-to-right fold."""
    total = float(start)
    comp = 0.0
    for x in iterable:
        t = total + x
        if abs(total) >= abs(x):
            comp += (total - t) + x
        else:
            comp += (x - t) + total
        total = t
    return total + comp if math.isfinite(comp) else total


def test_harmonic_fold_ignores_a_compensated_builtin_sum(monkeypatch):
    # A graph whose harmonic scans have many inexact terms, so a
    # compensated sum and the scalar fold disagree in the last bits.
    g = kronecker_graph(8, 6, seed=11)
    objective = HarmonicObjective()
    trav = CSRTraversal(g)
    current = committed(g, 3)
    current_nd = np.array(current, dtype=np.int32)
    sources = list(g.vertices())
    want = [scalar_eval(trav, u, current, objective)[0] for u in sources]
    folded_terms = []
    for u in sources:
        terms = [
            (1.0 / new if new else 0.0) - (1.0 / old if old != -1 else 0.0)
            for _v, old, new in improvements(g, u, current)
        ]
        folded_terms.append(terms)
    # The patched sum must really differ from the fold somewhere, or
    # this test would not guard anything.
    assert any(
        compensated_sum(terms, 0.0).hex() != w.hex()
        for terms, w in zip(folded_terms, want)
    )
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    # Budget 0 sends every scan that visits an edge to the vector scan,
    # whose harmonic fold is the one a compensated sum could change.
    trav.vector_dispatches = 0
    dist = scan_dist(current)
    vector = [
        trav.adaptive_eval(u, dist, current_nd, objective, budget=0)[0]
        for u in sources
    ]
    assert trav.vector_dispatches == len(handoffs_at_zero_budget(g, current))
    assert [x.hex() for x in vector] == [w.hex() for w in want]


BENCH_GRAPHS = [
    pytest.param(
        lambda seed=seed: kronecker_graph(
            10, 8, initiator=(0.57, 0.19, 0.19, 0.05), seed=seed
        ),
        id=f"rmat10-{seed}",
    )
    for seed in (3, 17)
] + [
    pytest.param(
        lambda seed=seed: copying_power_law(400, seed=seed),
        id=f"copy400-{seed}",
    )
    for seed in (1, 30)
]


@pytest.mark.parametrize("make_graph", BENCH_GRAPHS)
@pytest.mark.parametrize("measure", ["closeness", "harmonic"])
def test_default_lazy_equals_eager_at_benchmark_size(make_graph, measure):
    g = make_graph()
    skyline = neighborhood_skyline(g).skyline
    lazy = group_centrality_maximize(g, 8, measure=measure, skyline=skyline)
    eager = group_centrality_maximize(
        g, 8, measure=measure, skyline=skyline, strategy="eager"
    )
    assert lazy.strategy == "lazy"
    assert lazy.group == eager.group
    assert [x.hex() for x in lazy.gains] == [x.hex() for x in eager.gains]
    assert lazy.evaluations + lazy.evaluations_saved == eager.evaluations
