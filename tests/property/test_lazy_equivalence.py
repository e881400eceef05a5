"""Differential safety net for the lazy (CELF) greedy engine.

``strategy="lazy"`` must return the *same* group, gains (float ``==``),
and pool size as the eager reference driver — for every objective —
because laziness and the CSR kernels are pure scheduling changes.  These
tests enforce the claim on hypothesis-generated graphs (random,
power-law, disconnected composites, twin-heavy), including ``k`` at or
beyond the pool size so the heap-dry fallback path is exercised.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.centrality.greedy import greedy_maximize
from repro.centrality.group_closeness_max import ClosenessObjective
from repro.centrality.group_harmonic_max import HarmonicObjective
from repro.centrality.lazy_greedy import lazy_greedy_maximize
from repro.graph.adjacency import Graph
from tests.conftest import graphs, power_law_graphs

COMMON = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

def make_objective(graph, measure):
    """The gain objective for ``measure`` on ``graph``."""
    if measure == "closeness":
        return ClosenessObjective(graph)
    return HarmonicObjective()


def assert_identical(lazy, eager):
    assert lazy.group == eager.group
    assert lazy.gains == eager.gains  # float ==, not approx
    assert lazy.pool_size == eager.pool_size
    assert lazy.evaluations + lazy.evaluations_saved == eager.evaluations


@st.composite
def disconnected_graphs(draw):
    """Two independent hypothesis graphs glued into one vertex space."""
    a = draw(graphs(max_vertices=10))
    b = draw(graphs(max_vertices=10))
    offset = a.num_vertices
    edges = list(a.edges()) + [
        (u + offset, v + offset) for u, v in b.edges()
    ]
    return Graph.from_edges(offset + b.num_vertices, edges)


@st.composite
def twin_heavy_graphs(draw):
    """A small graph with extra false/true twins grafted on.

    Twins share gains exactly, so these graphs maximize the equal-gain
    smallest-ID tie-break traffic a wrong heap ordering would scramble.
    """
    g = draw(graphs(max_vertices=8))
    n = g.num_vertices
    if n == 0:
        return g
    adj = [set(g.neighbors(u)) for u in range(n)]
    extra = draw(st.integers(min_value=1, max_value=5))
    for _ in range(extra):
        src = draw(st.integers(min_value=0, max_value=len(adj) - 1))
        true_twin = draw(st.booleans())
        new = len(adj)
        adj.append(set(adj[src]))
        for w in adj[src]:
            adj[w].add(new)
        if true_twin:
            adj[src].add(new)
            adj[new].add(src)
    edges = [(u, v) for u, nbrs in enumerate(adj) for v in nbrs if u < v]
    return Graph.from_edges(len(adj), edges)


MEASURES = st.sampled_from(["closeness", "harmonic"])


@COMMON
@given(graphs(), st.integers(min_value=0, max_value=6), MEASURES)
def test_lazy_matches_eager_random(g, k, measure):
    objective = make_objective(g, measure)
    assert_identical(
        lazy_greedy_maximize(g, k, objective),
        greedy_maximize(g, k, objective),
    )


@COMMON
@given(power_law_graphs(), st.sampled_from([3, 7]), MEASURES)
def test_lazy_matches_eager_power_law(g, k, measure):
    objective = make_objective(g, measure)
    assert_identical(
        lazy_greedy_maximize(g, k, objective),
        greedy_maximize(g, k, objective),
    )


@COMMON
@given(disconnected_graphs(), st.sampled_from([2, 5]), MEASURES)
def test_lazy_matches_eager_disconnected(g, k, measure):
    objective = make_objective(g, measure)
    assert_identical(
        lazy_greedy_maximize(g, k, objective),
        greedy_maximize(g, k, objective),
    )


@COMMON
@given(twin_heavy_graphs(), st.sampled_from([1, 3, 6]), MEASURES)
def test_lazy_matches_eager_twin_heavy(g, k, measure):
    # Twin gains are bitwise equal, so every round exercises the
    # equal-gain ascending-ID heap order against the eager first-max.
    objective = make_objective(g, measure)
    assert_identical(
        lazy_greedy_maximize(g, k, objective),
        greedy_maximize(g, k, objective),
    )


@COMMON
@given(graphs(max_vertices=12), MEASURES)
def test_k_at_least_pool_size_falls_back(g, measure):
    # A pool smaller than k forces the heap-dry rebuild from V \ S —
    # the lazy mirror of the eager driver's fallback.
    if g.num_vertices == 0:
        return
    pool = list(range(min(2, g.num_vertices)))
    k = g.num_vertices + 5
    objective = make_objective(g, measure)
    assert_identical(
        lazy_greedy_maximize(g, k, objective, candidates=pool),
        greedy_maximize(g, k, objective, candidates=pool),
    )


