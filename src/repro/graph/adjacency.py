"""Immutable adjacency-list representation of a simple undirected graph.

This is the substrate every algorithm in the package runs on.  Design goals:

* **Simple, undirected, loop-free** — the paper (Sec. II) assumes exactly
  this model, so validation happens once at construction time and the
  algorithms never re-check.
* **Sorted neighbor lists** — neighborhood-inclusion tests, the
  ``NBRcheck`` of Algorithm 3 and clique candidate intersections all rely
  on ``O(log d)`` membership via :mod:`bisect` and linear-time merges.
* **Immutable** — graphs are shared freely between algorithms, caches
  (e.g. per-vertex bloom filters) and benchmark fixtures without defensive
  copies.  Mutation happens only through :class:`~repro.graph.builder.GraphBuilder`.

Vertices are the integers ``0 .. n-1``.  The vertex *ID* order is
semantically meaningful: Definition 2 of the paper breaks mutual-inclusion
ties by ID.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import Iterable, Iterator, Sequence

from repro.errors import GraphFormatError

__all__ = ["Graph"]


class Graph:
    """A simple undirected graph with integer vertices ``0 .. n-1``.

    Instances are created via :meth:`from_edges` (validating) or the
    internal :meth:`_from_sorted_adjacency` fast path used by builders and
    generators that guarantee well-formed input.

    The class intentionally exposes a small, read-only surface: degree and
    neighbor queries, edge membership, and iteration.  Everything else
    (statistics, sampling, IO) lives in sibling modules so the hot loops
    stay on top of plain lists.
    """

    __slots__ = ("_adj", "_m", "_csr", "_round0")

    def __init__(self, adjacency: list[list[int]], num_edges: int):
        # Not part of the public API: use from_edges / GraphBuilder.
        # Rows are normalized to tuples so neighbors() can hand out
        # internal storage without exposing anything mutable (None rows
        # are the lazy-subclass placeholder and pass through untouched).
        self._adj = [
            row if (type(row) is tuple or row is None) else tuple(row)
            for row in adjacency
        ]
        self._m = num_edges
        self._csr: tuple[array, array] | None = None
        #: Memoized empty-group greedy gains, created on first use by
        #: :mod:`repro.centrality.lazy_greedy` (see its module docstring).
        self._round0: dict | None = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph on ``n`` vertices from an iterable of edge pairs.

        Duplicate edges (in either orientation) are rejected, as are
        self-loops and endpoints outside ``[0, n)``.

        >>> g = Graph.from_edges(3, [(0, 1), (1, 2)])
        >>> g.degree(1)
        2
        """
        if n < 0:
            raise GraphFormatError(f"vertex count must be >= 0, got {n}")
        adj: list[list[int]] = [[] for _ in range(n)]
        m = 0
        for u, v in edges:
            if u == v:
                raise GraphFormatError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphFormatError(
                    f"edge ({u}, {v}) out of range for n={n}"
                )
            adj[u].append(v)
            adj[v].append(u)
            m += 1
        for u, neighbors in enumerate(adj):
            neighbors.sort()
            for i in range(1, len(neighbors)):
                if neighbors[i] == neighbors[i - 1]:
                    raise GraphFormatError(
                        f"duplicate edge ({u}, {neighbors[i]})"
                    )
        return cls(adj, m)

    @classmethod
    def _from_sorted_adjacency(
        cls, adjacency: list[list[int]], num_edges: int
    ) -> "Graph":
        """Trusted constructor for callers that pre-validated their input."""
        return cls(adjacency, num_edges)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_csr(self) -> tuple[array, array]:
        """The graph as a compressed-sparse-row ``(indptr, indices)`` pair.

        Both are ``array('q')`` (signed 64-bit) buffers: neighbors of
        vertex ``u`` are ``indices[indptr[u]:indptr[u+1]]``, sorted.
        :meth:`from_csr` restores an equal :class:`Graph`.

        The snapshot is memoized: graphs are immutable, so the first
        call builds it and every later call returns the **same** array
        pair.  Callers must
        treat the returned arrays as read-only — the graph contract,
        extended to its snapshot.

        >>> g = Graph.from_edges(3, [(0, 1), (1, 2)])
        >>> Graph.from_csr(*g.to_csr()) == g
        True
        >>> g.to_csr() is g.to_csr()
        True
        """
        if self._csr is None:
            n = len(self._adj)
            indptr = array("q", bytes(8 * (n + 1)))
            indices = array("q")
            total = 0
            for u, nbrs in enumerate(self._adj):
                indices.extend(nbrs)
                total += len(nbrs)
                indptr[u + 1] = total
            self._csr = (indptr, indices)
        return self._csr

    @classmethod
    def from_csr(cls, indptr: Sequence[int], indices: Sequence[int]) -> "Graph":
        """Rebuild a graph from a :meth:`to_csr` snapshot.

        The snapshot is trusted (it came from a validated graph), so the
        adjacency is handed straight to :meth:`_from_sorted_adjacency`.
        """
        # tolist() normalizes numpy arrays and memoryviews to plain
        # Python ints in one pass; array('q') supports it too.
        flat = (
            indices.tolist() if hasattr(indices, "tolist")
            else list(indices)
        )
        starts = (
            indptr.tolist() if hasattr(indptr, "tolist") else list(indptr)
        )
        adj = [
            tuple(flat[starts[u] : starts[u + 1]])
            for u in range(len(starts) - 1)
        ]
        # Every undirected edge contributes two CSR entries.
        return cls._from_sorted_adjacency(adj, len(flat) // 2)

    # ------------------------------------------------------------------
    # Size
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges ``m``."""
        return self._m

    def __len__(self) -> int:
        return len(self._adj)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def degree(self, u: int) -> int:
        """Degree ``deg(u) = |N(u)|``."""
        return len(self._adj[u])

    def neighbors(self, u: int) -> Sequence[int]:
        """The sorted open neighborhood ``N(u)``.

        The returned tuple is the graph's internal storage: immutable,
        so handing it out directly is safe and keeps the refine loop of
        Algorithm 3 allocation-free.
        """
        return self._adj[u]

    def degrees(self) -> list[int]:
        """All degrees at once: ``[deg(0), ..., deg(n-1)]``.

        Subclasses backed by CSR arrays answer from ``indptr`` without
        materializing any adjacency row — prefer this over a
        ``degree(u)`` loop when every vertex is needed.
        """
        return [len(row) for row in self._adj]

    def closed_neighborhood(self, u: int) -> list[int]:
        """The sorted closed neighborhood ``N[u] = N(u) ∪ {u}`` (a copy)."""
        nbrs = self._adj[u]
        pos = bisect_left(nbrs, u)
        out = list(nbrs)
        out.insert(pos, u)
        return out

    def has_edge(self, u: int, v: int) -> bool:
        """``True`` iff ``(u, v) ∈ E``.  ``O(log min(deg u, deg v))``."""
        a, b = (u, v) if len(self._adj[u]) <= len(self._adj[v]) else (v, u)
        nbrs = self._adj[a]
        i = bisect_left(nbrs, b)
        return i < len(nbrs) and nbrs[i] == b

    def vertices(self) -> range:
        """The vertex set as a range ``0 .. n-1``."""
        return range(len(self._adj))

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate over each undirected edge once, as ``(u, v)`` with ``u < v``."""
        for u, neighbors in enumerate(self._adj):
            for v in neighbors:
                if u < v:
                    yield (u, v)

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def induced_subgraph(
        self, vertices: Iterable[int]
    ) -> tuple["Graph", list[int]]:
        """Vertex-induced subgraph, relabelled to ``0 .. |S|-1``.

        Returns ``(subgraph, mapping)`` where ``mapping[new_id]`` is the
        original vertex ID.  Input order does not matter; the mapping is
        sorted so that the ID-based tie-break of Definition 2 is preserved
        relative to the original graph's ordering.
        """
        keep = sorted(set(vertices))
        index = {old: new for new, old in enumerate(keep)}
        n = len(self._adj)
        for old in keep:
            if not (0 <= old < n):
                raise GraphFormatError(
                    f"vertex {old} out of range for n={n}"
                )
        adj: list[list[int]] = [[] for _ in keep]
        m = 0
        for new, old in enumerate(keep):
            row = adj[new]
            for w in self._adj[old]:
                mapped = index.get(w)
                if mapped is not None:
                    row.append(mapped)
                    if mapped > new:
                        m += 1
        return Graph._from_sorted_adjacency(adj, m), keep

    # ------------------------------------------------------------------
    # Dunder conveniences
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adj == other._adj

    def __hash__(self) -> int:  # graphs are immutable, so hashing is safe
        return hash(tuple(map(tuple, self._adj)))

    def __repr__(self) -> str:
        return f"Graph(n={self.num_vertices}, m={self.num_edges})"
