"""Incremental construction of :class:`~repro.graph.adjacency.Graph`.

:class:`GraphBuilder` is the one mutable entry point into the graph layer.
It deduplicates edges, ignores orientation, rejects self-loops, and can
grow the vertex set on demand — convenient for parsing edge lists whose
vertex count is not known up front.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable

import numpy as _np

from repro.errors import GraphFormatError
from repro.graph.adjacency import Graph

__all__ = ["GraphBuilder"]


class GraphBuilder:
    """Accumulates edges and produces an immutable :class:`Graph`.

    >>> b = GraphBuilder()
    >>> b.add_edge(0, 2)
    >>> b.add_edge(2, 0)   # duplicate orientation — ignored
    >>> g = b.build()
    >>> (g.num_vertices, g.num_edges)
    (3, 1)
    """

    def __init__(self, num_vertices: int = 0):
        if num_vertices < 0:
            raise GraphFormatError(
                f"vertex count must be >= 0, got {num_vertices}"
            )
        self._n = num_vertices
        self._edges: set[tuple[int, int]] = set()

    @property
    def num_vertices(self) -> int:
        """Current vertex count (grows automatically with added edges)."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of distinct undirected edges added so far."""
        return len(self._edges)

    def ensure_vertex(self, u: int) -> None:
        """Grow the vertex set so that ``u`` is a valid vertex."""
        if u < 0:
            raise GraphFormatError(f"negative vertex id {u}")
        if u >= self._n:
            self._n = u + 1

    def add_edge(self, u: int, v: int) -> None:
        """Add the undirected edge ``(u, v)``; duplicates are ignored."""
        if u == v:
            raise GraphFormatError(f"self-loop at vertex {u}")
        self.ensure_vertex(u)
        self.ensure_vertex(v)
        self._edges.add((u, v) if u < v else (v, u))

    def add_edges(self, edges: Iterable[tuple[int, int]]) -> None:
        """Add every edge from an iterable of pairs."""
        for u, v in edges:
            self.add_edge(u, v)

    def has_edge(self, u: int, v: int) -> bool:
        """``True`` iff the edge was already added (either orientation)."""
        return ((u, v) if u < v else (v, u)) in self._edges

    def build(self) -> Graph:
        """Freeze the accumulated edges into an immutable :class:`Graph`."""
        flat = _np.fromiter(
            chain.from_iterable(self._edges),
            dtype=_np.int64,
            count=2 * len(self._edges),
        )
        return Graph.from_edge_arrays(self._n, flat[0::2], flat[1::2])
