"""Differential tests for the bitset round-0 kernel.

:meth:`~repro.paths.csr.CSRTraversal.first_round_gains` scores every
source of an empty group with one bit-parallel BFS and replays each
lane's scalar fold from its level histogram.  It must return the
*bitwise same* float as the scalar closeness / harmonic fold
(``adaptive_eval`` with the budget patched to ``sys.maxsize``) on an
all-unreachable distance vector, for every source count (one lane, one word, one word plus one lane,
several words), across lane chunks, and on graphs with isolated
vertices and several components.  Equality is on ``float.hex`` so a
last-bit drift or a ``-0.0`` for ``0.0`` fails.

The end-to-end leg pins the default greedy (lazy, so the bitset round
0) to the scalar eager driver on R-MAT graphs of scale 7 to 10.
"""

import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.paths.csr as csr_module
from repro.centrality.group_closeness_max import ClosenessObjective
from repro.centrality.group_harmonic_max import HarmonicObjective
from repro.core.api import group_centrality_maximize, neighborhood_skyline
from repro.graph.adjacency import Graph
from repro.graph.generators import erdos_renyi, kronecker_graph
from repro.paths.csr import CSRTraversal
from tests.conftest import graphs, scan_edge_budget

COMMON = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

MEASURES = st.sampled_from(["closeness", "harmonic"])


def make_objective(graph, measure):
    if measure == "closeness":
        return ClosenessObjective(graph)
    return HarmonicObjective()


def scalar_gains(graph, sources, objective):
    trav = CSRTraversal(graph)
    n = graph.num_vertices
    empty = [n] * n  # nothing reachable: the scan's ``n`` sentinel
    with scan_edge_budget(sys.maxsize):
        return [
            trav.adaptive_eval(s, empty, None, objective)[0]
            for s in sources
        ]


def assert_bitwise(got, want):
    assert [g.hex() for g in got] == [w.hex() for w in want]


def with_isolated(graph, extra):
    """``graph`` with ``extra`` isolated vertices after each vertex."""
    step = extra + 1
    edges = [(u * step, v * step) for u, v in graph.edges()]
    return Graph.from_edges(max(1, graph.num_vertices) * step, edges)


def disjoint_union(a, b):
    shift = a.num_vertices
    edges = list(a.edges()) + [(u + shift, v + shift) for u, v in b.edges()]
    return Graph.from_edges(shift + b.num_vertices, edges)


@COMMON
@given(graphs(max_vertices=40), MEASURES)
def test_all_sources_match_scalar(g, measure):
    objective = make_objective(g, measure)
    sources = list(range(g.num_vertices))
    trav = CSRTraversal(g)
    assert_bitwise(
        trav.first_round_gains(sources, objective),
        scalar_gains(g, sources, objective),
    )


@COMMON
@given(
    graphs(max_vertices=20),
    graphs(max_vertices=20),
    st.integers(min_value=1, max_value=5),
    MEASURES,
)
def test_isolated_vertices_and_components(a, b, extra, measure):
    g = with_isolated(disjoint_union(a, b), extra)
    objective = make_objective(g, measure)
    sources = list(range(g.num_vertices))
    trav = CSRTraversal(g)
    assert_bitwise(
        trav.first_round_gains(sources, objective),
        scalar_gains(g, sources, objective),
    )


@COMMON
@given(
    st.sampled_from([1, 63, 64, 65, 129, 200]),
    st.integers(min_value=0, max_value=2**31),
    st.floats(min_value=0.005, max_value=0.05),
    MEASURES,
    st.booleans(),
    st.data(),
)
def test_source_counts_across_words_and_chunks(
    count, seed, p, measure, small_budget, data
):
    g = erdos_renyi(150, p, seed=seed)
    sources = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=g.num_vertices - 1),
            min_size=count,
            max_size=count,
        )
    )
    objective = make_objective(g, measure)
    want = scalar_gains(g, sources, objective)
    trav = CSRTraversal(g)
    if small_budget:
        # One word (64 lanes) per chunk: 65+ sources cross a boundary.
        saved = csr_module.ROUND0_CELL_BUDGET
        csr_module.ROUND0_CELL_BUDGET = 1
        try:
            got = trav.first_round_gains(sources, objective)
        finally:
            csr_module.ROUND0_CELL_BUDGET = saved
    else:
        got = trav.first_round_gains(sources, objective)
    assert_bitwise(got, want)


def test_chunk_boundary_with_monkeypatched_budget(monkeypatch):
    g = kronecker_graph(8, 4, seed=5)
    sources = list(range(g.num_vertices))
    for measure in ("closeness", "harmonic"):
        objective = make_objective(g, measure)
        want = scalar_gains(g, sources, objective)
        monkeypatch.setattr(csr_module, "ROUND0_CELL_BUDGET", 1)
        got = CSRTraversal(g).first_round_gains(sources, objective)
        monkeypatch.undo()
        assert_bitwise(got, want)


def test_empty_and_edgeless():
    trav = CSRTraversal(Graph.from_edges(3, []))
    assert trav.first_round_gains([], HarmonicObjective()) == []
    gains = trav.first_round_gains([0, 2], HarmonicObjective())
    assert [g.hex() for g in gains] == [(0.0).hex()] * 2
    closeness = ClosenessObjective(Graph.from_edges(3, []))
    assert trav.first_round_gains([1], closeness) == [3.0]


@pytest.mark.parametrize("scale", [7, 8, 9, 10])
@pytest.mark.parametrize("measure", ["closeness", "harmonic"])
def test_default_lazy_equals_scalar_eager_on_rmat(scale, measure):
    g = kronecker_graph(scale, 8, seed=100 + scale)
    skyline = neighborhood_skyline(g).skyline
    k = 6
    lazy = group_centrality_maximize(g, k, measure=measure, skyline=skyline)
    eager = group_centrality_maximize(
        g,
        k,
        measure=measure,
        skyline=skyline,
        strategy="eager",
    )
    assert lazy.strategy == "lazy"
    assert lazy.group == eager.group
    assert lazy.gains == eager.gains
    assert lazy.pool_size == eager.pool_size
    assert lazy.evaluations + lazy.evaluations_saved == eager.evaluations
