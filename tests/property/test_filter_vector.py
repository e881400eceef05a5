"""Differential safety net for the vectorized filter phase (Alg. 2).

``filter_phase`` must return the *same* candidates and dominator array
as ``scalar_filter_phase``, the paper's Alg. 2 as a scalar loop, bit for
bit, counted or not.  Its counters are pinned to the one path it runs:
``n`` vertices examined, one pair test per pretest survivor (the rest
under ``extra["filter_pretest_rejects"]``), one domination per
non-candidate and no skip tallies.  The graph families stress the
replay's order-dependent writes: twin classes (the ID tie-break and
its ``elif`` branch), stars and cliques with pendants (strict
dominations and early breaks), isolated vertices and the empty and
one-vertex graphs.
"""

import random
import sys
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.counters import NULL_COUNTERS, SkylineCounters
from repro.core.filter_phase import filter_phase, scalar_filter_phase
from repro.graph.adjacency import Graph
from repro.graph.generators import kronecker_graph, star_graph
from tests.conftest import graphs, power_law_graphs, twin_heavy_graphs

# The module, not the function ``repro.core`` re-exports under its name.
FILTER_MODULE = sys.modules["repro.core.filter_phase"]

COMMON = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def assert_one_path_counters(g: Graph, candidates, counters) -> None:
    """The vectorized pass's counters: every vertex examined, each of
    the ``2m`` directed edges either a pair test or a pretest reject,
    one domination per non-candidate, nothing else."""
    n = g.num_vertices
    rejects = counters.extra.get("filter_pretest_rejects", 0)
    assert counters.vertices_examined == n
    assert counters.pair_tests + rejects == 2 * g.num_edges
    assert counters.dominations_found == n - len(candidates)
    assert counters.degree_skips == 0
    assert counters == SkylineCounters(
        vertices_examined=n,
        pair_tests=counters.pair_tests,
        dominations_found=n - len(candidates),
        extra={"filter_pretest_rejects": rejects} if n else {},
    )


def assert_filter_matches(g: Graph) -> None:
    """Vector pass == scalar reference."""
    c_ref, c_vec = SkylineCounters(), SkylineCounters()
    ref = scalar_filter_phase(g, counters=c_ref)
    vec = filter_phase(g, counters=c_vec)
    assert vec[0] == ref[0]
    assert vec[1] == ref[1]
    assert_one_path_counters(g, vec[0], c_vec)
    # The scalar loop merges only pretest survivors of the rows it scans.
    assert c_ref.pair_tests <= c_vec.pair_tests
    # Uncounted and null-counted runs give the same output.
    assert filter_phase(g) == ref
    assert filter_phase(g, counters=NULL_COUNTERS) == ref


@st.composite
def stars(draw):
    """A star, possibly with a few leaf-leaf chords."""
    n = draw(st.integers(min_value=1, max_value=30))
    g = star_graph(n)
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**31)))
    edges = set(g.edges())
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        u, v = rng.randrange(n), rng.randrange(n)
        if u and v and u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph.from_edges(g.num_vertices, edges)


@st.composite
def cliques_with_pendants(draw):
    """``K_k`` with pendant vertices hung off random members, IDs shuffled."""
    k = draw(st.integers(min_value=1, max_value=8))
    pendants = draw(st.integers(min_value=0, max_value=8))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**31)))
    n = k + pendants
    label = list(range(n))
    rng.shuffle(label)
    edges = [(i, j) for i in range(k) for j in range(i + 1, k)]
    edges += [(rng.randrange(k), k + p) for p in range(pendants)]
    return Graph.from_edges(n, [(label[u], label[v]) for u, v in edges])


@st.composite
def with_isolated_vertices(draw):
    """A random graph with isolated vertices interleaved among its IDs."""
    g = draw(graphs(max_vertices=16))
    extra = draw(st.integers(min_value=1, max_value=6))
    n = g.num_vertices + extra
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**31)))
    label = list(range(n))
    rng.shuffle(label)
    return Graph.from_edges(n, [(label[u], label[v]) for u, v in g.edges()])


@COMMON
@given(power_law_graphs())
def test_power_law(g):
    assert_filter_matches(g)


@COMMON
@given(twin_heavy_graphs())
def test_twin_heavy(g):
    assert_filter_matches(g)


@COMMON
@given(stars())
def test_stars(g):
    assert_filter_matches(g)


@COMMON
@given(cliques_with_pendants())
def test_cliques_with_pendants(g):
    assert_filter_matches(g)


@COMMON
@given(with_isolated_vertices())
def test_isolated_vertices(g):
    assert_filter_matches(g)


@COMMON
@given(graphs())
def test_random_graphs(g):
    assert_filter_matches(g)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_edgeless(n):
    assert_filter_matches(Graph.from_edges(n, []))


@pytest.mark.parametrize("seed", [3, 11])
def test_rmat(seed):
    g = kronecker_graph(8, 8, initiator=(0.57, 0.19, 0.19, 0.05), seed=seed)
    assert_filter_matches(g)


@COMMON
@given(
    st.one_of(power_law_graphs(), twin_heavy_graphs()),
    st.integers(min_value=1, max_value=16),
)
def test_chunking(g, budget):
    """A key budget far below one row forces a chunk per edge."""
    with mock.patch.object(FILTER_MODULE, "FILTER_KEY_BUDGET", budget):
        assert_filter_matches(g)
