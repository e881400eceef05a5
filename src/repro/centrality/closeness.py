"""Vertex and group closeness centrality (Defs. 6–7 of the paper).

``C(u) = n / Σ_{v≠u} d(v, u)`` and
``GC(S) = n / Σ_{v∉S} d(v, S)``.

Disconnected graphs: the literal definitions give 0 (an infinite sum).
Following standard practice for greedy group-closeness solvers (and the
connected datasets of the paper), this module substitutes a finite
penalty of ``n`` for each unreachable distance — an upper bound no true
distance can reach, so reachable structure still orders groups sensibly.
On connected graphs the penalty never fires and the values equal the
paper's definitions exactly.
"""

from __future__ import annotations

from typing import Iterable

from repro.graph.adjacency import Graph
from repro.paths.csr import UNREACHED, bfs_distances, multi_source_distances

__all__ = ["closeness_centrality", "group_closeness", "group_farness"]


def _penalized(d: int, penalty: int) -> int:
    return penalty if d == UNREACHED else d


def closeness_centrality(graph: Graph, u: int) -> float:
    """Vertex closeness ``C(u)`` with the ``n``-penalty convention."""
    n = graph.num_vertices
    if n <= 1:
        return 0.0
    dist = bfs_distances(graph, u)
    total = sum(_penalized(d, n) for v, d in enumerate(dist) if v != u)
    return n / total if total else 0.0


def group_farness(graph: Graph, group: Iterable[int]) -> float:
    """``F(S) = Σ_{v∉S} d(v, S)`` with the ``n``-penalty convention.

    Group closeness maximization is exactly farness minimization, and
    the greedy algorithms reason in farness units; exposing it makes the
    per-round gains testable.
    """
    members = set(group)
    n = graph.num_vertices
    dist = multi_source_distances(graph, members)
    return float(
        sum(_penalized(d, n) for v, d in enumerate(dist) if v not in members)
    )


def group_closeness(graph: Graph, group: Iterable[int]) -> float:
    """Group closeness ``GC(S)`` (Def. 7) with the ``n``-penalty convention."""
    members = set(group)
    n = graph.num_vertices
    if not members or len(members) >= n:
        return 0.0
    farness = group_farness(graph, members)
    return n / farness if farness else 0.0
