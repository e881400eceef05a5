"""The edge-key hash set behind the filter phase and the block refine.

:meth:`~repro.graph.csr.EdgeIndex.has_keys` answers "is ``(w, x)`` an
edge?" for a batch of keys ``w·n + x`` from an open-addressing table
with linear probing.  These tests pin it to a Python ``set`` of edges
over every key ``0 … n² − 1`` (self-pairs and non-edges included) on
the shapes that stress a hash set: no keys, one key, a star (one row
holds half the keys), complete graphs (every row a dense run of
consecutive keys) and key sets built so every key shares one home
slot and the probe run wraps past the end of the table.  They pin
:attr:`~repro.graph.csr.EdgeIndex.pivot` to a brute-force minimum
over each row, isolated vertices included.  They also run the filter
phase and the block refine on one shared index and check output
against the scalar references and every counter against its
definition, and pin a counted block skyline's counters to the filter
phase's plus the three the refine tallies.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.block_refine import block_refine_pass, filter_refine_block_sky
from repro.core.counters import SkylineCounters
from repro.core.filter_phase import filter_phase, scalar_filter_phase
from repro.core.filter_refine import filter_refine_sky
from repro.graph.adjacency import Graph
from repro.graph.csr import (
    _SLOTS_PER_KEY,
    EdgeIndex,
    _home_slots,
    _key_table,
    edge_index,
)
from repro.graph.generators import complete_graph, star_graph
from tests.conftest import graphs, power_law_graphs, twin_heavy_graphs
from tests.property.test_auto_refine import brute_force_passes
from tests.property.test_filter_vector import assert_one_path_counters

COMMON = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def key_set(keys) -> EdgeIndex:
    """An :class:`EdgeIndex` holding only the hash set of ``keys``."""
    table = _key_table(np.asarray(sorted(keys), dtype=np.int64))
    return EdgeIndex(None, None, None, None, None, table)


def assert_has_keys_exact(g: Graph) -> None:
    """Every key ``0 … n² − 1`` answered as a set of edges answers it."""
    n = g.num_vertices
    edges = {(u, v) for u in range(n) for v in g.neighbors(u)}
    index = edge_index(g)
    table = index.table
    size = len(table)
    assert size >= 2 and size & (size - 1) == 0
    assert size >= _SLOTS_PER_KEY * len(edges)
    stored = np.sort(table[table != -1])
    assert stored.tolist() == sorted(u * n + v for u, v in edges)
    queries = np.arange(n * n, dtype=np.int64)
    expected = [(int(q) // n, int(q) % n) in edges for q in queries]
    assert index.has_keys(queries).tolist() == expected
    # Order and repeats do not matter: reversed, doubled queries.
    twice = np.concatenate([queries[::-1], queries])
    assert index.has_keys(twice).tolist() == expected[::-1] + expected


@pytest.mark.parametrize("n", [0, 1, 2, 5])
def test_edgeless(n):
    g = Graph.from_edges(n, [])
    assert_has_keys_exact(g)
    if n:
        # Self-pairs, the first key and the last key: all misses.
        index = edge_index(g)
        ends = np.array([0, n * n - 1, (n - 1) * (n + 1)], dtype=np.int64)
        assert not index.has_keys(ends).any()


def test_single_edge():
    assert_has_keys_exact(Graph.from_edges(2, [(0, 1)]))
    assert_has_keys_exact(Graph.from_edges(7, [(3, 6)]))


@pytest.mark.parametrize("n", [2, 3, 9, 40])
def test_star(n):
    assert_has_keys_exact(star_graph(n))


@pytest.mark.parametrize("n", [2, 3, 8, 33, 64])
def test_complete(n):
    assert_has_keys_exact(complete_graph(n))


@COMMON
@given(st.one_of(graphs(), power_law_graphs(), twin_heavy_graphs()))
def test_has_keys_matches_edge_set(g):
    assert_has_keys_exact(g)


@COMMON
@given(
    st.sets(st.integers(min_value=0, max_value=2**40), max_size=300),
    st.lists(st.integers(min_value=0, max_value=2**40), max_size=300),
)
def test_key_table_is_an_exact_set(keys, misses):
    index = key_set(keys)
    queries = sorted(keys) + misses
    expected = [q in keys for q in queries]
    assert index.has_keys(np.array(queries, dtype=np.int64)).tolist() == (
        expected
    )


@pytest.mark.parametrize("count", [1, 2, 7, 20])
def test_one_home_slot_wrapping_run(count):
    """``count`` keys all homed at the last slot: the run they form
    wraps to the front, and every lookup homed in it walks the run."""
    size = 1 << max(1, (_SLOTS_PER_KEY * count - 1).bit_length())
    pool = np.arange(1 << 20, dtype=np.int64)
    homes = _home_slots(pool, size)
    keys = pool[homes == size - 1][:count]
    assert len(keys) == count
    index = key_set(keys.tolist())
    assert len(index.table) == size
    # Keys homed anywhere in the run, stored or not.
    in_run = (homes == size - 1) | (homes < count)
    queries = pool[in_run][: 4 * count + 8]
    stored = set(keys.tolist())
    assert index.has_keys(queries).tolist() == [
        q in stored for q in queries.tolist()
    ]


def brute_force_pivots(g: Graph) -> list[int]:
    """Each vertex's minimum-(degree, ID) neighbor, ``-1`` if isolated."""
    deg = [g.degree(u) for u in range(g.num_vertices)]
    return [
        min(g.neighbors(u), key=lambda v: (deg[v], v), default=-1)
        for u in range(g.num_vertices)
    ]


@st.composite
def graphs_with_isolated_vertices(draw):
    """A random graph with isolated vertices first, amid and last."""
    g = draw(st.one_of(graphs(max_vertices=16), twin_heavy_graphs()))
    n = g.num_vertices
    ids = draw(st.permutations(range(n + 3)))
    # The first, a middle and the last ID stay isolated.
    skip = {0, (n + 2) // 2, n + 2}
    label = [i for i in ids if i not in skip]
    return Graph.from_edges(
        n + 3, [(label[u], label[v]) for u, v in g.edges()]
    )


def assert_pivots(g: Graph) -> None:
    pivot = edge_index(g).pivot
    assert pivot.dtype == np.int64
    assert pivot.tolist() == brute_force_pivots(g)


@COMMON
@given(
    st.one_of(
        graphs(),
        power_law_graphs(),
        twin_heavy_graphs(),
        graphs_with_isolated_vertices(),
    )
)
def test_pivot_is_min_degree_neighbor(g):
    assert_pivots(g)


def pivot_pair_tests(g, candidates, dominator, dominated) -> int:
    """The block refine's ``pair_tests``, one pivot-row entry at a time.

    Each candidate's pivot is its minimum-degree neighbor (ties to the
    smaller ID); an entry ``w`` of the pivot row reaches the subset
    test unless it is the candidate itself, has a smaller degree or
    was filter-dominated, and in the witness pass also unless it is a
    smaller refine-dominated vertex.
    """
    deg = [g.degree(u) for u in range(g.num_vertices)]
    refine_dominated = set(dominated)
    tests = 0
    for witness, us in ((False, candidates), (True, dominated)):
        for u in us:
            if not deg[u]:
                continue
            pivot = min(g.neighbors(u), key=lambda v: (deg[v], v))
            for w in g.neighbors(pivot):
                if w == u or deg[w] < deg[u] or dominator[w] != w:
                    continue
                if witness and w < u and w in refine_dominated:
                    continue
                tests += 1
    return tests


def assert_shared_index_matches_references(g: Graph) -> None:
    index = edge_index(g)
    c_filter = SkylineCounters()
    reference = scalar_filter_phase(g)
    candidates, dominator = filter_phase(
        g, counters=c_filter, index=index
    )
    assert (candidates, dominator) == reference
    assert_one_path_counters(g, candidates, c_filter)

    frozen = list(dominator)
    dominated, witnesses = brute_force_passes(g, candidates, frozen)
    expected = SkylineCounters(
        vertices_examined=len(candidates),
        pair_tests=pivot_pair_tests(g, candidates, frozen, dominated),
        dominations_found=len(dominated),
    )
    stats = SkylineCounters()
    assert (
        block_refine_pass(index, candidates, dominator, stats)
        == dominated
    )
    assert stats == expected
    for u, w in witnesses:
        assert dominator[u] == w
    assert tuple(dominator) == filter_refine_sky(g).dominator


def assert_block_skyline_counters(g: Graph) -> None:
    """A counted block skyline's counters are the filter phase's plus
    the refine's ``|C|`` visits, pivot pair tests and dominations; its
    only extra is the filter phase's pretest tally."""
    c_filter = SkylineCounters()
    candidates, dominator = filter_phase(g, counters=c_filter)
    dominated, _ = brute_force_passes(g, candidates, dominator)
    counters = SkylineCounters()
    filter_refine_block_sky(g, counters=counters)
    assert counters == dataclasses.replace(
        c_filter,
        vertices_examined=c_filter.vertices_examined + len(candidates),
        pair_tests=c_filter.pair_tests
        + pivot_pair_tests(g, candidates, dominator, dominated),
        dominations_found=c_filter.dominations_found + len(dominated),
    )
    assert set(counters.extra) <= {"filter_pretest_rejects"}


@COMMON
@given(st.one_of(graphs(), power_law_graphs(), twin_heavy_graphs()))
def test_shared_index_counters_match_references(g):
    assert_shared_index_matches_references(g)


@COMMON
@given(st.one_of(graphs(), power_law_graphs(), twin_heavy_graphs()))
def test_block_skyline_counters_are_filter_plus_refine(g):
    assert_block_skyline_counters(g)


@pytest.mark.parametrize(
    "g",
    [Graph.from_edges(0, []), Graph.from_edges(3, []), star_graph(6)]
    + [complete_graph(k) for k in (1, 2, 6)]
    # Isolated vertices first, last, in the middle and around an edge:
    # the empty segments the pivots' reduceat skips.
    + [Graph.from_edges(3, [(1, 2)]), Graph.from_edges(3, [(0, 1)])]
    + [Graph.from_edges(3, [(0, 2)]), Graph.from_edges(5, [(1, 3)])],
    ids=[
        "empty",
        "edgeless",
        "star",
        "k1",
        "k2",
        "k6",
        "isolated-first",
        "isolated-last",
        "isolated-middle",
        "isolated-around",
    ],
)
def test_shared_index_on_degenerate_graphs(g):
    assert_pivots(g)
    assert_shared_index_matches_references(g)
    assert_block_skyline_counters(g)
