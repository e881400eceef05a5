"""Structural invariant checks for :class:`~repro.graph.adjacency.Graph`.

The graph class trusts its constructors; :func:`validate_graph` is the
independent auditor used by property-based tests and by anyone loading
graphs through untrusted code paths.  It verifies:

* adjacency rows are strictly sorted (sorted + duplicate-free),
* the relation is symmetric,
* no self-loops,
* the edge count (half the stored entries) matches the rows, so no
  entry lies outside them.
"""

from __future__ import annotations

from repro.errors import GraphFormatError
from repro.graph.adjacency import Graph

__all__ = ["validate_graph"]


def validate_graph(graph: Graph) -> None:
    """Raise :class:`GraphFormatError` if any structural invariant fails."""
    n = graph.num_vertices
    half_edges = 0
    for u in graph.vertices():
        prev = -1
        for v in graph.neighbors(u):
            if not (0 <= v < n):
                raise GraphFormatError(
                    f"vertex {u} lists out-of-range neighbor {v}"
                )
            if v == u:
                raise GraphFormatError(f"self-loop at vertex {u}")
            if v <= prev:
                raise GraphFormatError(
                    f"adjacency of {u} not strictly sorted at {v}"
                )
            prev = v
            if not graph.has_edge(v, u):
                raise GraphFormatError(
                    f"asymmetric edge: {u} lists {v} but not vice versa"
                )
            half_edges += 1
    if half_edges != 2 * graph.num_edges:
        raise GraphFormatError(
            f"edge count mismatch: num_edges={graph.num_edges} but "
            f"adjacency holds {half_edges} half-edges"
        )
