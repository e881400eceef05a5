"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import os
import random

import pytest
from hypothesis import settings as hypothesis_settings
from hypothesis import strategies as st

# CI runners are slower and noisier than dev machines; the "ci" profile
# relaxes the per-example deadline accordingly (tests that manage their
# own @settings, deadline included, are unaffected).  Selected via
# HYPOTHESIS_PROFILE=ci in .github/workflows/ci.yml.
hypothesis_settings.register_profile("ci", deadline=2000)
if "HYPOTHESIS_PROFILE" in os.environ:
    hypothesis_settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])

from repro.graph.adjacency import Graph
from repro.graph.generators import (
    chung_lu_power_law,
    complete_binary_tree,
    complete_graph,
    copying_power_law,
    cycle_graph,
    erdos_renyi,
    path_graph,
    star_graph,
)
from repro.graph.karate import karate_club


# ---------------------------------------------------------------------
# Hypothesis strategies
# ---------------------------------------------------------------------
@st.composite
def graphs(draw, max_vertices: int = 24, max_edge_prob: float = 0.5):
    """A random simple graph, biased toward small sparse instances."""
    n = draw(st.integers(min_value=0, max_value=max_vertices))
    if n < 2:
        return Graph.from_edges(n, [])
    p = draw(st.floats(min_value=0.0, max_value=max_edge_prob))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    return erdos_renyi(n, p, seed=seed)


@st.composite
def power_law_graphs(draw, max_vertices: int = 60):
    """A random copying-model power-law graph (the paper's regime)."""
    n = draw(st.integers(min_value=6, max_value=max_vertices))
    copy_prob = draw(st.floats(min_value=0.0, max_value=0.95))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    return copying_power_law(n, 2.5, copy_prob, seed=seed)


@st.composite
def connected_graphs(draw, max_vertices: int = 20):
    """A connected random graph (spanning tree + extra random edges)."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    rng = random.Random(seed)
    edges = set()
    for v in range(1, n):
        edges.add((rng.randrange(v), v))
    extra = draw(st.integers(min_value=0, max_value=2 * n))
    for _ in range(extra):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph.from_edges(n, edges)


@st.composite
def twin_heavy_graphs(draw):
    """A small graph with extra false/true twins grafted on.

    Twin classes are exactly the mutual-inclusion ties of Def. 2, so
    these graphs maximize the ID tie-break traffic a wrong refine
    decomposition would scramble.
    """
    g = draw(graphs(max_vertices=10))
    n = g.num_vertices
    if n == 0:
        return g
    adj = [set(g.neighbors(u)) for u in range(n)]
    extra = draw(st.integers(min_value=1, max_value=6))
    for _ in range(extra):
        src = draw(st.integers(min_value=0, max_value=len(adj) - 1))
        true_twin = draw(st.booleans())
        new = len(adj)
        adj.append(set(adj[src]))
        for w in adj[src]:
            adj[w].add(new)
        if true_twin:
            # An edge between equal open neighborhoods makes the closed
            # neighborhoods equal too.
            adj[src].add(new)
            adj[new].add(src)
    edges = [
        (u, v) for u, nbrs in enumerate(adj) for v in nbrs if u < v
    ]
    return Graph.from_edges(len(adj), edges)


# ---------------------------------------------------------------------
# Fixtures: canonical small graphs
# ---------------------------------------------------------------------
@pytest.fixture
def karate() -> Graph:
    return karate_club()


@pytest.fixture
def triangle() -> Graph:
    return Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def k5() -> Graph:
    return complete_graph(5)


@pytest.fixture
def p6() -> Graph:
    return path_graph(6)


@pytest.fixture
def c6() -> Graph:
    return cycle_graph(6)


@pytest.fixture
def star7() -> Graph:
    return star_graph(7)


@pytest.fixture
def tree3() -> Graph:
    return complete_binary_tree(3)


@pytest.fixture
def small_power_law() -> Graph:
    """A fixed ~120-vertex power-law graph for integration-ish tests."""
    return copying_power_law(120, 2.5, 0.85, seed=7)


@pytest.fixture
def small_chung_lu() -> Graph:
    return chung_lu_power_law(100, 2.7, average_degree=6.0, seed=11)


@pytest.fixture
def disconnected() -> Graph:
    """Two triangles, one pendant pair, and an isolated vertex."""
    return Graph.from_edges(
        9,
        [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (6, 7)],
    )
