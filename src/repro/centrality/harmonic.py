"""Vertex and group harmonic centrality (Defs. 8–9 of the paper).

``H(u) = Σ_{v≠u} 1/d(v, u)`` and ``GH(S) = Σ_{v∉S} 1/d(v, S)``.

Harmonic centrality handles disconnection natively: an unreachable
vertex contributes ``1/∞ = 0``, no penalty convention needed — one of
the reasons the measure is popular on fragmented real-world graphs.
"""

from __future__ import annotations

from typing import Iterable

from repro.graph.adjacency import Graph
from repro.paths.csr import UNREACHED, bfs_distances, multi_source_distances

__all__ = ["harmonic_centrality", "group_harmonic"]


def harmonic_centrality(graph: Graph, u: int) -> float:
    """Vertex harmonic centrality ``H(u)`` (Def. 8)."""
    dist = bfs_distances(graph, u)
    return sum(1.0 / d for d in dist if d > 0)


def group_harmonic(graph: Graph, group: Iterable[int]) -> float:
    """Group harmonic centrality ``GH(S)`` (Def. 9).

    Note ``GH`` is *not* monotone in ``S``: adding a vertex deletes its
    own ``1/d(u, S)`` term, which can outweigh the improvements — the
    paper leans on Angriman et al.'s result that greedy still gives a
    0.5-approximation.
    """
    members = set(group)
    dist = multi_source_distances(graph, members)
    return sum(
        1.0 / d
        for v, d in enumerate(dist)
        if v not in members and d != UNREACHED and d > 0
    )
