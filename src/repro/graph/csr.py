"""Numpy-backed CSR graph — the canonical large-graph substrate.

:class:`CSRGraph` stores adjacency as two contiguous ``int32`` ndarrays
(``indptr``/``indices``) and satisfies the full :class:`~repro.graph.
adjacency.Graph` protocol, so every algorithm in the package runs on it
unchanged.  What the array backing buys:

* **O(1) construction from a snapshot** — :meth:`CSRGraph.from_arrays`
  wraps existing buffers (including ``np.memmap`` views of the on-disk
  binary format, :mod:`repro.graph.binfmt`) without copying;
  :meth:`~repro.graph.adjacency.Graph.to_csr` returns the same arrays
  back, zero-copy.
* **Vectorized whole-graph scans** — ``degrees()`` is one ``np.diff``,
  and the filter phase and the block refine kernel run their
  neighborhood-inclusion tests over the CSR arrays, through one shared
  :func:`edge_index` (an edge-key hash set and degree-ordered rows).
* **List-speed scalar loops** — ``neighbors(u)`` materializes a row
  into a plain tuple on first touch and caches it, so the
  refine/clique/greedy inner loops never pay numpy's per-element boxing
  cost.

Arrays are exposed read-only (``writeable=False`` views), matching the
immutability contract of the list-backed graph.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as _np

from repro.errors import GraphFormatError
from repro.graph.adjacency import Graph

__all__ = [
    "CSRGraph",
    "EdgeIndex",
    "as_csr",
    "budget_slices",
    "csr_ndarrays",
    "csr_from_edge_arrays",
    "edge_index",
    "gather_rows",
    "graph_from_edge_arrays",
]


def _readonly_i32(data):
    """``data`` as a read-only ``int32`` ndarray (zero-copy when possible)."""
    arr = _np.asarray(data)
    if arr.dtype != _np.int32:
        arr = arr.astype(_np.int32)
    view = arr.view()
    view.flags.writeable = False
    return view


class CSRGraph(Graph):
    """A :class:`Graph` whose storage is two ``int32`` CSR ndarrays.

    Build with :meth:`from_arrays` (wrap existing buffers, zero-copy) or
    :meth:`from_graph` (snapshot a list-backed graph); generators and
    loaders use :func:`graph_from_edge_arrays` to assemble one straight
    from edge endpoint arrays without ever holding Python adjacency
    lists.

    Row materialization is lazy and cached exactly like
    :class:`~repro.graph.adjacency.CSRGraphView`: algorithms touching a
    fraction of the graph only pay for the rows they visit, and rows are
    plain int tuples, so results (and iteration order) are identical to
    the list-backed graph's — the differential property suite pins this.
    """

    __slots__ = ("_np_indptr", "_np_indices")

    def __init__(self, indptr, indices):
        # Trusted constructor: use from_arrays / from_graph /
        # graph_from_edge_arrays, which normalize dtype and flags.
        n = int(len(indptr)) - 1
        super().__init__([None] * n, int(len(indices)) // 2)
        self._np_indptr = indptr
        self._np_indices = indices
        # to_csr() is the memoized self._csr — returning the backing
        # arrays themselves makes every snapshot/publish zero-copy.
        self._csr = (indptr, indices)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_arrays(cls, indptr, indices) -> "CSRGraph":
        """Wrap ``(indptr, indices)`` buffers as a graph.

        The snapshot is trusted (sorted rows, symmetric edges, no
        loops) — it came from :meth:`~repro.graph.adjacency.Graph.
        to_csr`, the binary loader, or a validated build pipeline.
        Buffers already in ``int32`` (including memmaps) are wrapped
        zero-copy; anything else is converted once.
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

    @classmethod
    def from_graph(cls, graph: Graph) -> "CSRGraph":
        """A CSR-backed copy of ``graph`` (``graph`` itself if already one)."""
        if isinstance(graph, CSRGraph):
            return graph
        indptr, indices = graph.to_csr()
        return cls.from_arrays(indptr, indices)

    # ------------------------------------------------------------------
    # Array access
    # ------------------------------------------------------------------
    def csr_arrays(self):
        """The backing ``(indptr, indices)`` ndarrays, read-only."""
        return self._np_indptr, self._np_indices

    def neighbors_array(self, u: int):
        """``N(u)`` as a zero-copy read-only ``int32`` slice."""
        indptr = self._np_indptr
        return self._np_indices[indptr[u] : indptr[u + 1]]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def degree(self, u: int) -> int:
        indptr = self._np_indptr
        return int(indptr[u + 1]) - int(indptr[u])

    def degrees(self) -> list[int]:
        return _np.diff(self._np_indptr).tolist()

    def neighbors(self, u: int) -> Sequence[int]:
        row = self._adj[u]
        if row is None:
            indptr = self._np_indptr
            row = tuple(
                self._np_indices[indptr[u] : indptr[u + 1]].tolist()
            )
            self._adj[u] = row
        return row

    def has_edge(self, u: int, v: int) -> bool:
        indptr = self._np_indptr
        du = int(indptr[u + 1]) - int(indptr[u])
        dv = int(indptr[v + 1]) - int(indptr[v])
        a, b = (u, v) if du <= dv else (v, u)
        s, e = int(indptr[a]), int(indptr[a + 1])
        ind = self._np_indices
        i = s + int(_np.searchsorted(ind[s:e], b))
        return i < e and int(ind[i]) == b

    def closed_neighborhood(self, u: int) -> list[int]:
        self.neighbors(u)
        return super().closed_neighborhood(u)

    # ------------------------------------------------------------------
    # Whole-graph operations (materialize rows, then defer to base)
    # ------------------------------------------------------------------
    def _materialize(self) -> None:
        for u in range(len(self._adj)):
            if self._adj[u] is None:
                self.neighbors(u)

    def edges(self) -> Iterator[tuple[int, int]]:
        self._materialize()
        return super().edges()

    def induced_subgraph(
        self, vertices: Iterable[int]
    ) -> tuple[Graph, list[int]]:
        self._materialize()
        return super().induced_subgraph(vertices)

    def __eq__(self, other: object) -> bool:
        self._materialize()
        return super().__eq__(other)

    def __hash__(self) -> int:
        self._materialize()
        return super().__hash__()

    def __repr__(self) -> str:
        return f"CSRGraph(n={self.num_vertices}, m={self.num_edges})"


def as_csr(graph: Graph) -> CSRGraph:
    """``graph`` on the numpy CSR substrate (``graph`` itself if already).

    The single upgrade point loaders and the workload registry call:
    results are bit-for-bit identical on either backing, so callers
    never need to know which one they got.
    """
    return CSRGraph.from_graph(graph)


def csr_ndarrays(graph: Graph):
    """``(indptr, indices)`` of ``graph`` as numpy arrays, on any backend.

    Zero-copy: a :class:`CSRGraph`'s backing arrays, or ndarray views
    of a list-backed graph's memoized ``to_csr()`` snapshot.
    """
    if isinstance(graph, CSRGraph):
        return graph.csr_arrays()
    indptr, indices = graph.to_csr()
    return _np.asarray(indptr), _np.asarray(indices)


#: Fibonacci multiplier, ``2⁶⁴ / φ`` rounded to odd: multiplying by it
#: and keeping the top bits spreads runs of consecutive keys (one row's
#: ``row·n + col``) evenly over the table.
_FIBONACCI = _np.uint64(0x9E3779B97F4A7C15)

#: Marks a free slot of the key table; no key ``row·n + col ≥ 0`` is it.
_EMPTY = -1

#: Key-table slots per edge key, before rounding up to a power of two:
#: the table is at most a third full, so most lookups end at the first
#: slot they read.
_SLOTS_PER_KEY = 3


def _home_slots(keys, size: int):
    """Each key's first table slot: the top ``log₂ size`` bits of
    ``key · 2⁶⁴/φ`` (``size`` a power of two, at least 2)."""
    slots = keys.astype(_np.uint64)
    slots *= _FIBONACCI
    slots >>= _np.uint64(65 - size.bit_length())
    return slots.view(_np.int64)


def _key_table(keys):
    """An open-addressing hash set of the distinct ``keys``.

    Linear probing from :func:`_home_slots`, wrapping at the end of the
    power-of-two table; free slots hold :data:`_EMPTY`.  Inserted in
    vectorized rounds: every pending key writes its slot if that slot
    is free, the keys that then read their own key back are placed,
    and the rest (a slot already taken, or won by another key this
    round) move one slot on.  So every slot between a key's home and
    its place is taken before the key is placed, which is what a
    lookup's stop-at-the-first-free-slot relies on.
    """
    size = 1 << max(1, (_SLOTS_PER_KEY * len(keys) - 1).bit_length())
    mask = size - 1
    table = _np.full(size, _EMPTY, dtype=_np.int64)
    slots = _home_slots(keys, size)
    while keys.size:
        free = table[slots] == _EMPTY
        table[slots[free]] = keys[free]
        lost = table[slots] != keys
        keys, slots = keys[lost], slots[lost]
        slots += 1
        slots &= mask
    return table


class EdgeIndex(NamedTuple):
    """Whole-graph ndarray views for vectorized neighborhood-inclusion
    tests; see :func:`edge_index`."""

    #: Row offsets, ``int64``.
    indptr: object
    #: The CSR column array (each row ascending).
    indices: object
    #: ``deg[u]``, ``int64``.
    deg: object
    #: The row (source vertex) of every CSR slot, ``int64``.
    row: object
    #: ``indices`` with every row reordered by neighbor degree, ties to
    #: the smaller ID: ``by_degree[indptr[u]]`` is ``u``'s rarest
    #: neighbor, the one any superset of ``N(u)`` is least likely to hold.
    by_degree: object
    #: The edge keys ``row·n + col`` as a linear-probing hash set
    #: (:func:`_key_table`): a power of two ``int64`` slots, at least
    #: :data:`_SLOTS_PER_KEY` per key, free ones ``-1``.
    table: object

    def has_keys(self, queries):
        """Per ``w·n + x`` query (``0 ≤ w, x < n``): is ``(w, x)`` an
        edge?

        One gather of every query's home slot answers most of them: the
        slot holds the key (a hit) or is free (a miss).  Only the few
        queries whose slot holds another key walk on, one slot per
        round, until they meet their key or a free slot.
        """
        table = self.table
        queries = _np.asarray(queries, dtype=_np.int64)
        slots = _home_slots(queries, len(table))
        found = table[slots]
        hit = found == queries
        active = _np.flatnonzero(~hit & (found != _EMPTY))
        slots = slots[active]
        mask = len(table) - 1
        while active.size:
            slots += 1
            slots &= mask
            found = table[slots]
            match = found == queries[active]
            hit[active[match]] = True
            more = ~match & (found != _EMPTY)
            active, slots = active[more], slots[more]
        return hit


def edge_index(graph: Graph) -> EdgeIndex:
    """The edge-key hash set and degree-ordered rows of ``graph``.

    The filter phase and the block refine kernel share one: the caller
    that runs both (:func:`~repro.core.block_refine.
    filter_refine_block_sky`) builds it once and passes it to each.
    Nothing caches it, so it lives for that one call.  Cost: a few
    passes over the ``2m`` slots, one sort of ``n`` degrees, one value
    sort of ``2m`` keys below ``n²`` and the hash-set inserts.  It
    holds two ``2m`` ``int64`` arrays (``row``, ``by_degree``) and the
    table of ``6m`` to ``12m`` ``int64`` slots.
    """
    indptr, indices = csr_ndarrays(graph)
    n = len(indptr) - 1
    indptr = indptr.astype(_np.int64, copy=False)
    deg = indptr[1:] - indptr[:-1]
    row = _np.repeat(_np.arange(n, dtype=_np.int64), deg)
    base = row * n
    # Rank every vertex by (degree, ID); sorting the keys row·n + rank
    # then orders each row by neighbor degree, ties to the smaller ID.
    by_rank = _np.argsort(deg, kind="stable")
    rank = _np.empty(n, dtype=_np.int64)
    rank[by_rank] = _np.arange(n, dtype=_np.int64)
    ranked = _np.sort(base + rank[indices])
    ranked -= base
    by_degree = by_rank[ranked]
    del ranked  # one 2m array fewer alive while the table is built
    base += indices
    return EdgeIndex(indptr, indices, deg, row, by_degree, _key_table(base))


def gather_rows(indices, starts, lens):
    """Concatenate the rows ``indices[starts[i] : starts[i] + lens[i]]``."""
    total = int(lens.sum())
    if not total:
        return _np.empty(0, dtype=indices.dtype)
    offsets = _np.arange(total, dtype=_np.int64) - _np.repeat(
        _np.cumsum(lens) - lens, lens
    )
    return indices[_np.repeat(starts, lens) + offsets]


def budget_slices(cost, budget: int) -> list[tuple[int, int]]:
    """Split ``range(len(cost))`` greedily into ``(lo, hi)`` slices whose
    summed ``cost`` stays within ``budget`` (at least one item each)."""
    bounds: list[tuple[int, int]] = []
    if not len(cost):
        return bounds
    cum = _np.cumsum(cost)
    start = 0
    while start < len(cost):
        limit = (cum[start - 1] if start else 0) + budget
        end = max(int(_np.searchsorted(cum, limit, side="right")), start + 1)
        bounds.append((start, end))
        start = end
    return bounds


def csr_from_edge_arrays(n: int, us, vs):
    """Vectorized CSR assembly from undirected edge endpoint arrays.

    ``us``/``vs`` hold one entry per undirected edge — already
    deduplicated, loop-free and in ``[0, n)`` (loaders and generators
    validate upstream).  Returns sorted ``(indptr, indices)`` ``int32``
    arrays; cost is one ``lexsort`` over the ``2m`` directed entries.
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


def graph_from_edge_arrays(n: int, us, vs) -> CSRGraph:
    """A :class:`CSRGraph` from undirected edge endpoint arrays."""
    indptr, indices = csr_from_edge_arrays(n, us, vs)
    return CSRGraph.from_arrays(indptr, indices)
