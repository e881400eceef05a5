"""Vectorized whole-graph CSR kernels.

The filter phase (:mod:`repro.core.filter_phase`), the block refine
kernel (:mod:`repro.core.block_refine`) and core peeling
(:mod:`repro.graph.cores`) run their neighborhood scans over a graph's
:meth:`~repro.graph.adjacency.Graph.csr_arrays` instead of its tuple
rows.  This module holds what they share: one :func:`edge_index` (an
edge-key hash set and each vertex's pivot), the ragged row gather
:func:`gather_rows` and the cost-bounded chunking :func:`budget_slices`.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as _np

from repro.graph.adjacency import Graph

__all__ = [
    "EdgeIndex",
    "budget_slices",
    "edge_index",
    "gather_rows",
]


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
    #: ``pivot[u]``, ``u``'s minimum-degree neighbor (ties to the
    #: smaller ID), ``-1`` if ``u`` is isolated: the neighbor any
    #: superset of ``N(u)`` is least likely to hold.  ``int64``.
    pivot: object
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
    """The edge-key hash set and the pivots of ``graph``.

    The filter phase and the block refine kernel share one: the caller
    that runs both (:func:`~repro.core.block_refine.
    filter_refine_block_sky`) builds it once and passes it to each.
    Nothing caches it, so it lives for that one call.  Cost: a few
    passes over the ``2m`` slots, one sort of ``n`` degrees, one
    ``minimum.reduceat`` over the rows and the hash-set inserts.  It
    holds one ``2m`` ``int64`` array (``row``), ``n``-length ones and
    the table of ``6m`` to ``12m`` ``int64`` slots.
    """
    indptr, indices = graph.csr_arrays()
    n = len(indptr) - 1
    indptr = indptr.astype(_np.int64, copy=False)
    deg = indptr[1:] - indptr[:-1]
    row = _np.repeat(_np.arange(n, dtype=_np.int64), deg)
    # Rank every vertex by (degree, ID); each row's least rank is its
    # pivot.  Only non-empty rows are reduced: reduceat would give an
    # empty segment the value at its start.
    by_rank = _np.argsort(deg, kind="stable")
    rank = _np.empty(n, dtype=_np.int64)
    rank[by_rank] = _np.arange(n, dtype=_np.int64)
    pivot = _np.full(n, -1, dtype=_np.int64)
    rows = _np.flatnonzero(deg)
    pivot[rows] = by_rank[_np.minimum.reduceat(rank[indices], indptr[rows])]
    keys = row * n + indices
    return EdgeIndex(indptr, indices, deg, row, pivot, _key_table(keys))


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
