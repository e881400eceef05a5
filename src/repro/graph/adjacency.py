"""Immutable CSR representation of a simple undirected graph.

This is the substrate every algorithm in the package runs on.  Design goals:

* **Simple, undirected, loop-free** — the paper (Sec. II) assumes exactly
  this model, so validation happens once at construction time and the
  algorithms never re-check.
* **Two ``int32`` CSR arrays** — ``indptr``/``indices``, each row
  sorted ascending.  Built in one vectorized pass
  (:func:`csr_from_edge_arrays`) or wrapped zero-copy around existing
  buffers, ``np.memmap`` views of the binary format
  (:mod:`repro.graph.binfmt`) included.  The filter phase, the block
  refine kernel, core peeling and the traversal kernels scan them whole
  through :meth:`Graph.csr_arrays`.
* **Tuple rows for scalar loops** — :meth:`Graph.neighbors` turns a row
  into a plain int tuple on first touch and keeps it, so the
  refine/clique/greedy inner loops never pay numpy's per-element boxing
  cost and only pay for the rows they visit.  Neighborhood-inclusion
  tests and clique intersections rely on these sorted rows for
  ``O(log d)`` membership via :mod:`bisect` and linear-time merges.
* **Immutable** — the arrays are read-only views and rows are tuples, so
  graphs are shared freely between algorithms, caches (e.g. per-vertex
  bloom filters) and benchmark fixtures without defensive copies.
  Mutation happens only through :class:`~repro.graph.builder.GraphBuilder`.

Vertices are the integers ``0 .. n-1``.  The vertex *ID* order is
semantically meaningful: Definition 2 of the paper breaks mutual-inclusion
ties by ID.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import Iterable, Iterator, Sequence

import numpy as _np

from repro.errors import GraphFormatError

__all__ = ["Graph"]


def _readonly_i32(data):
    """``data`` as a read-only ``int32`` ndarray (zero-copy when possible)."""
    arr = _np.asarray(data)
    if arr.dtype != _np.int32:
        arr = arr.astype(_np.int32)
    view = arr.view()
    view.flags.writeable = False
    return view


def csr_from_edge_arrays(n: int, us, vs):
    """Vectorized CSR assembly from undirected edge endpoint arrays.

    ``us``/``vs`` hold one entry per undirected edge, loop-free and in
    ``[0, n)``.  Returns ``(indptr, indices)`` ``int32`` arrays with
    every row sorted; cost is one ``lexsort`` over the ``2m`` directed
    entries.  A repeated edge shows up as a repeated entry in its rows.
    """
    us = _np.asarray(us, dtype=_np.int64)
    vs = _np.asarray(vs, dtype=_np.int64)
    src = _np.concatenate([us, vs])
    dst = _np.concatenate([vs, us])
    indptr = _np.zeros(n + 1, dtype=_np.int64)
    _np.cumsum(_np.bincount(src, minlength=n), out=indptr[1:])
    order = _np.lexsort((dst, src))
    indices = dst[order]
    return indptr.astype(_np.int32), indices.astype(_np.int32)


class Graph:
    """A simple undirected graph with integer vertices ``0 .. n-1``.

    Instances are created via :meth:`from_edges` (validating),
    :class:`~repro.graph.builder.GraphBuilder`, :meth:`from_edge_arrays`
    (deduplicated endpoint arrays, from loaders and generators) or
    :meth:`from_arrays` (trusted CSR buffers, wrapped zero-copy).

    The class intentionally exposes a small, read-only surface: degree and
    neighbor queries, edge membership, iteration and the CSR arrays.
    Everything else (statistics, sampling, IO) lives in sibling modules.
    """

    __slots__ = ("_indptr", "_indices", "_rows", "_round0")

    def __init__(self, indptr, indices):
        # Not part of the public API: the classmethods below normalize
        # dtype and flags before they get here.
        self._indptr = indptr
        self._indices = indices
        #: ``neighbors(u)`` tuples, ``None`` until first touched.  The
        #: traversal kernels of :mod:`repro.paths.csr` read this list in
        #: place, so every traversal of one graph object shares the rows.
        self._rows: list = [None] * (len(indptr) - 1)
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
        ends = array("q")
        for u, v in edges:
            if u == v:
                raise GraphFormatError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphFormatError(
                    f"edge ({u}, {v}) out of range for n={n}"
                )
            ends.append(u)
            ends.append(v)
        flat = _np.frombuffer(ends, dtype=_np.int64)
        indptr, indices = csr_from_edge_arrays(n, flat[0::2], flat[1::2])
        # A repeated edge is a repeated entry within a sorted row; the
        # first in CSR order names the smallest vertex that lists it.
        row = _np.repeat(_np.arange(n, dtype=_np.int32), _np.diff(indptr))
        dup = _np.flatnonzero(
            (indices[1:] == indices[:-1]) & (row[1:] == row[:-1])
        )
        if dup.size:
            i = int(dup[0]) + 1
            raise GraphFormatError(
                f"duplicate edge ({int(row[i])}, {int(indices[i])})"
            )
        return cls.from_arrays(indptr, indices)

    @classmethod
    def from_edge_arrays(cls, n: int, us, vs) -> "Graph":
        """A graph from undirected edge endpoint arrays.

        Trusted: one entry per edge, already deduplicated, loop-free and
        in ``[0, n)`` (loaders and generators validate upstream).
        """
        return cls.from_arrays(*csr_from_edge_arrays(n, us, vs))

    @classmethod
    def from_arrays(cls, indptr, indices) -> "Graph":
        """Wrap ``(indptr, indices)`` CSR buffers as a graph.

        The snapshot is trusted (sorted rows, symmetric edges, no
        loops): it came from :meth:`csr_arrays`, the binary loader, or
        a validated build pipeline; :func:`~repro.graph.validation.
        validate_graph` audits it.  Buffers already in ``int32``
        (memmaps included) are wrapped zero-copy; anything else is
        converted once.
        """
        indptr = _np.asarray(indptr)
        if len(indptr) == 0:
            raise GraphFormatError("CSR indptr must have at least 1 entry")
        if int(indptr[-1]) != len(indices):
            raise GraphFormatError(
                f"CSR indptr ends at {int(indptr[-1])} but indices holds "
                f"{len(indices)} entries"
            )
        if len(indices) >= 1 << 31:
            raise GraphFormatError(
                "CSR indices exceed int32 range; graphs beyond ~1.07e9 "
                "edges are not supported"
            )
        return cls(_readonly_i32(indptr), _readonly_i32(indices))

    # ------------------------------------------------------------------
    # Size
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return len(self._rows)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges ``m``."""
        return len(self._indices) // 2

    def __len__(self) -> int:
        return len(self._rows)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def csr_arrays(self):
        """The backing ``(indptr, indices)`` ``int32`` ndarrays, read-only.

        Neighbors of ``u`` are ``indices[indptr[u]:indptr[u + 1]]``,
        sorted.  Zero-copy: the arrays the graph itself reads.
        """
        return self._indptr, self._indices

    def degree(self, u: int) -> int:
        """Degree ``deg(u) = |N(u)|``, from the built row if there is one."""
        row = self._rows[u]
        if row is not None:
            return len(row)
        indptr = self._indptr
        return int(indptr[u + 1]) - int(indptr[u])

    def neighbors(self, u: int) -> Sequence[int]:
        """The sorted open neighborhood ``N(u)``.

        The returned tuple is built on first call and kept: immutable,
        so handing it out directly is safe and keeps the refine loop of
        Algorithm 3 allocation-free.
        """
        row = self._rows[u]
        if row is None:
            indptr = self._indptr
            row = tuple(self._indices[indptr[u] : indptr[u + 1]].tolist())
            self._rows[u] = row
        return row

    def degrees(self) -> list[int]:
        """All degrees at once: ``[deg(0), ..., deg(n-1)]``.

        One ``np.diff`` of ``indptr``, without building any row — prefer
        this over a ``degree(u)`` loop when every vertex is needed.
        """
        return _np.diff(self._indptr).tolist()

    def closed_neighborhood(self, u: int) -> list[int]:
        """The sorted closed neighborhood ``N[u] = N(u) ∪ {u}`` (a copy)."""
        nbrs = self.neighbors(u)
        out = list(nbrs)
        out.insert(bisect_left(nbrs, u), u)
        return out

    def has_edge(self, u: int, v: int) -> bool:
        """``True`` iff ``(u, v) ∈ E``.  ``O(log min(deg u, deg v))``.

        Bisects the shorter of the two tuple rows (built on first touch).
        """
        rows = self._rows
        a = rows[u]
        if a is None:
            a = self.neighbors(u)
        b = rows[v]
        if b is None:
            b = self.neighbors(v)
        if len(b) < len(a):
            a, v = b, u
        i = bisect_left(a, v)
        return i < len(a) and a[i] == v

    def vertices(self) -> range:
        """The vertex set as a range ``0 .. n-1``."""
        return range(len(self._rows))

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate over each undirected edge once, as ``(u, v)`` with ``u < v``.

        Edges come in CSR order (``u`` ascending, then ``v``).
        """
        indptr, indices = self._indptr, self._indices
        row = _np.repeat(
            _np.arange(len(self._rows), dtype=_np.int32), _np.diff(indptr)
        )
        upper = row < indices
        return zip(row[upper].tolist(), indices[upper].tolist())

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
        n = len(self._rows)
        for old in keep:
            if not (0 <= old < n):
                raise GraphFormatError(
                    f"vertex {old} out of range for n={n}"
                )
        new_id = _np.full(n, -1, dtype=_np.int64)
        new_id[_np.array(keep, dtype=_np.int64)] = _np.arange(
            len(keep), dtype=_np.int64
        )
        indptr, indices = self._indptr, self._indices
        src = _np.repeat(new_id, _np.diff(indptr))
        dst = new_id[indices]
        # Both ends kept, each edge once: dst > src >= 0.
        upper = (src >= 0) & (dst > src)
        sub = Graph.from_edge_arrays(len(keep), src[upper], dst[upper])
        return sub, keep

    # ------------------------------------------------------------------
    # Dunder conveniences
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return bool(
            _np.array_equal(self._indptr, other._indptr)
            and _np.array_equal(self._indices, other._indices)
        )

    def __hash__(self) -> int:  # graphs are immutable, so hashing is safe
        return hash((self._indptr.tobytes(), self._indices.tobytes()))

    def __repr__(self) -> str:
        return f"Graph(n={self.num_vertices}, m={self.num_edges})"
