"""Unit tests for the k-core decomposition (``repro.graph.cores``)."""

import pytest
from hypothesis import HealthCheck, given, settings

from repro.graph.adjacency import Graph
from repro.graph.cores import CoreDecomposition, core_decomposition
from repro.graph.generators import (
    complete_graph,
    cycle_graph,
    kronecker_graph,
    path_graph,
    star_graph,
)
from repro.graph.karate import karate_club
from tests.conftest import graphs, power_law_graphs

COMMON = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def oracle_core_numbers(g: Graph) -> list[int]:
    """Textbook one-vertex-at-a-time peel (Batagelj–Zaveršnik).

    Repeatedly removes a minimum-degree vertex; the core number is the
    running maximum of the removal-time degrees.  Core numbers are
    unique, so any correct decomposition must match this exactly.
    """
    n = g.num_vertices
    deg = list(g.degrees())
    removed = [False] * n
    core = [0] * n
    k = 0
    for _ in range(n):
        u = min(
            (v for v in range(n) if not removed[v]),
            key=lambda v: (deg[v], v),
        )
        k = max(k, deg[u])
        core[u] = k
        removed[u] = True
        for w in g.neighbors(u):
            if not removed[w]:
                deg[w] -= 1
    return core


def assert_valid_decomposition(g: Graph, dec: CoreDecomposition) -> None:
    n = g.num_vertices
    assert dec.core == oracle_core_numbers(g)
    assert sorted(dec.order) == list(range(n))
    assert dec.degeneracy == (max(dec.core) if n else 0)
    # Degeneracy-ordering property: every vertex has at most
    # `degeneracy` neighbors later in the peel order.
    rank = [0] * n
    for pos, u in enumerate(dec.order):
        rank[u] = pos
    for u in range(n):
        right = sum(1 for v in g.neighbors(u) if rank[v] > rank[u])
        assert right <= dec.degeneracy
    # Plain Python ints, not numpy scalars (JSON payloads require them).
    assert all(type(c) is int for c in dec.core)
    assert all(type(u) is int for u in dec.order)
    assert type(dec.degeneracy) is int


@COMMON
@given(graphs())
def test_matches_oracle_random(g):
    assert_valid_decomposition(g, core_decomposition(g))


@COMMON
@given(power_law_graphs())
def test_matches_oracle_power_law(g):
    assert_valid_decomposition(g, core_decomposition(g))


def test_known_graphs():
    assert core_decomposition(karate_club()).degeneracy == 4
    assert core_decomposition(complete_graph(6)).core == [5] * 6
    assert core_decomposition(cycle_graph(7)).core == [2] * 7
    assert core_decomposition(path_graph(5)).core == [1] * 5
    star = core_decomposition(star_graph(6))
    assert star.core == [1] * 6
    assert star.degeneracy == 1


def test_empty_and_isolated():
    assert core_decomposition(Graph.from_edges(0, [])) == ([], [], 0)
    dec = core_decomposition(Graph.from_edges(3, []))
    assert dec.core == [0, 0, 0]
    assert dec.degeneracy == 0


def batch_peel_oracle(g: Graph) -> CoreDecomposition:
    """The vectorized peel's batch schedule, replayed in pure Python.

    Level jump to the minimum live degree, cascade rounds of every
    vertex at or below the level (ascending IDs), bulk decrements —
    entry for entry what :func:`core_decomposition` does over the CSR
    arrays, so it pins the peel *order*, not only the core numbers.
    """
    return batch_peel_schedule(g)[0]


def batch_peel_schedule(g: Graph) -> tuple[CoreDecomposition, int]:
    """:func:`batch_peel_oracle` plus the number of cascade rounds."""
    n = g.num_vertices
    rounds = 0
    deg = list(g.degrees())
    alive = [True] * n
    core = [0] * n
    order: list[int] = []
    k = 0
    while len(order) < n:
        k = max(k, min(deg[u] for u in range(n) if alive[u]))
        batch = [u for u in range(n) if alive[u] and deg[u] <= k]
        while batch:
            rounds += 1
            for u in batch:
                alive[u] = False
                core[u] = k
            order.extend(batch)
            touched: dict[int, int] = {}
            for u in batch:
                for v in g.neighbors(u):
                    touched[v] = touched.get(v, 0) + 1
            for v, cnt in touched.items():
                deg[v] -= cnt
            batch = sorted(v for v in touched if alive[v] and deg[v] <= k)
    return CoreDecomposition(core, order, max(core) if n else 0), rounds


@COMMON
@given(graphs())
def test_backends_agree_exactly(g):
    """The vectorized peel and the pure-Python schedule are identical —
    same cores, same order, same degeneracy."""
    assert core_decomposition(g) == batch_peel_oracle(g)


@pytest.mark.parametrize(
    "name, build, min_rounds",
    [
        # kron_large's peel runs 114 cascade rounds, an R-MAT scale-10
        # graph 57; a path peels two vertices per round from its ends.
        ("rmat10", lambda: kronecker_graph(10, 8, seed=3), 50),
        ("path240", lambda: path_graph(240), 110),
        (
            "rmat8_with_tail",
            lambda: Graph.from_edges(
                456,
                list(kronecker_graph(8, 8, seed=7).edges())
                + [(u, u + 1) for u in range(255, 455)],
            ),
            100,
        ),
    ],
)
def test_backends_agree_on_long_cascades(name, build, min_rounds):
    """The bincount rounds keep the schedule over a hundred cascades."""
    g = build()
    slow, rounds = batch_peel_schedule(g)
    assert rounds >= min_rounds
    assert core_decomposition(g) == slow
