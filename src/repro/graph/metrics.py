"""Structural graph metrics beyond degree statistics.

Characterization metrics for datasets and generated stand-ins:
triangle counts, clustering coefficients, degree assortativity and
(approximate) diameter.  The benchmark suite uses them to demonstrate
that the synthetic stand-ins carry the structural properties (triangle
density, hub correlation) that the skyline results depend on; tests use
them to sanity-check generators against known closed forms.
"""

from __future__ import annotations

import math

from repro.graph.adjacency import Graph
from repro.paths.csr import bfs_distances

__all__ = [
    "triangle_count",
    "triangles_per_vertex",
    "global_clustering",
    "average_local_clustering",
    "degree_assortativity",
    "approximate_diameter",
]


def triangles_per_vertex(graph: Graph) -> list[int]:
    """``t[u]`` = number of triangles through ``u``.

    Standard forward counting over the degree order: each triangle is
    found exactly once at its lowest-ordered corner and credited to all
    three.  ``O(m^{3/2})`` on sparse graphs.
    """
    n = graph.num_vertices
    order = sorted(range(n), key=lambda u: (graph.degree(u), u))
    rank = [0] * n
    for position, u in enumerate(order):
        rank[u] = position
    forward: list[list[int]] = [[] for _ in range(n)]
    for u in range(n):
        for v in graph.neighbors(u):
            if rank[v] > rank[u]:
                forward[u].append(v)
    triangles = [0] * n
    forward_sets = [set(f) for f in forward]
    for u in range(n):
        fu = forward[u]
        for i, v in enumerate(fu):
            fv = forward_sets[v]
            for w in fu[i + 1 :]:
                if w in fv or v in forward_sets[w]:
                    triangles[u] += 1
                    triangles[v] += 1
                    triangles[w] += 1
    return triangles


def triangle_count(graph: Graph) -> int:
    """Total number of triangles in the graph."""
    return sum(triangles_per_vertex(graph)) // 3


def global_clustering(graph: Graph) -> float:
    """Transitivity: ``3 · triangles / wedges`` (0 when wedge-free)."""
    wedges = sum(
        d * (d - 1) // 2
        for d in (graph.degree(u) for u in graph.vertices())
    )
    if wedges == 0:
        return 0.0
    return 3.0 * triangle_count(graph) / wedges


def average_local_clustering(graph: Graph) -> float:
    """Mean of per-vertex clustering coefficients (deg < 2 counts as 0)."""
    n = graph.num_vertices
    if n == 0:
        return 0.0
    triangles = triangles_per_vertex(graph)
    total = 0.0
    for u in range(n):
        d = graph.degree(u)
        if d >= 2:
            total += 2.0 * triangles[u] / (d * (d - 1))
    return total / n


def degree_assortativity(graph: Graph) -> float:
    """Pearson correlation of endpoint degrees over edges.

    Negative on hub-satellite graphs (hubs attach to leaves), positive
    on collaboration-style graphs.  Returns 0.0 when degenerate (no
    edges or zero variance).
    """
    xs: list[int] = []
    ys: list[int] = []
    for u, v in graph.edges():
        du, dv = graph.degree(u), graph.degree(v)
        # Count each edge in both orientations for symmetry.
        xs.extend((du, dv))
        ys.extend((dv, du))
    if not xs:
        return 0.0
    count = len(xs)
    mean_x = sum(xs) / count
    mean_y = sum(ys) / count
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    var_x = sum((x - mean_x) ** 2 for x in xs)
    var_y = sum((y - mean_y) ** 2 for y in ys)
    if var_x == 0 or var_y == 0:
        return 0.0
    return cov / math.sqrt(var_x * var_y)


def approximate_diameter(graph: Graph, *, sweeps: int = 4) -> int:
    """Lower bound on the diameter via repeated double sweeps.

    Starts at the maximum-degree vertex, repeatedly BFS-ing to the
    farthest vertex found.  Exact on trees; a strong lower bound in
    general.  Operates within the component of the start vertex.
    """
    n = graph.num_vertices
    if n == 0:
        return 0
    start = max(graph.vertices(), key=graph.degree)
    best = 0
    current = start
    for _ in range(max(1, sweeps)):
        dist = bfs_distances(graph, current)
        far_vertex = current
        far_distance = 0
        for v, d in enumerate(dist):
            if d > far_distance:
                far_vertex, far_distance = v, d
        if far_distance <= best:
            break
        best = far_distance
        current = far_vertex
    return best
