"""Inverted index over a :class:`~repro.containment.records.RecordSet`.

Maps each element ``x`` to the sorted list of record IDs containing
``x``.  This is the index the set-containment-join literature (including
LC-Join) builds on the data set ``S`` — and, as the paper notes for the
skyline use case, its size is what makes join-based approaches memory
hungry: the index duplicates every element occurrence.

The postings are ``int32`` ndarray views into one flat buffer, built
once by a stable counting sort over all (element, record) occurrence
pairs — the representation the join of
:mod:`repro.containment.lcjoin` consumes directly (its
``np.intersect1d`` step needs ndarray operands, not Python lists).
"""

from __future__ import annotations

import numpy as _np

from repro.containment.records import RecordSet

__all__ = ["InvertedIndex"]


class InvertedIndex:
    """Element → sorted record-ID postings over a record set."""

    __slots__ = ("_postings", "_empty")

    def __init__(self, records: RecordSet):
        self._postings = self._build(records)
        self._empty = _np.empty(0, dtype=_np.int32)

    @staticmethod
    def _build(records: RecordSet) -> list:
        """All postings as ``int32`` views into one flat buffer.

        One stable argsort over the flattened (element, record ID)
        occurrence pairs groups equal elements together while keeping
        record IDs ascending inside each group, without per-element
        list objects.
        """
        universe = records.universe
        total = records.total_elements()
        elems = _np.empty(total, dtype=_np.int64)
        rids = _np.empty(total, dtype=_np.int32)
        pos = 0
        for rid, record in enumerate(records):
            m = len(record)
            elems[pos : pos + m] = record
            rids[pos : pos + m] = rid
            pos += m
        order = _np.argsort(elems, kind="stable")
        counts = _np.bincount(elems, minlength=universe) if total else (
            _np.zeros(universe, dtype=_np.int64)
        )
        bounds = _np.empty(universe + 1, dtype=_np.int64)
        bounds[0] = 0
        _np.cumsum(counts, out=bounds[1:])
        flat = rids[order]
        return [
            flat[bounds[x] : bounds[x + 1]] for x in range(universe)
        ]

    def postings(self, x: int):
        """Sorted record IDs whose record contains ``x`` (empty if none).

        An ``int32`` ndarray view; callers that need a list should wrap
        with ``list(...)``.
        """
        if 0 <= x < len(self._postings):
            return self._postings[x]
        return self._empty

    def posting_length(self, x: int) -> int:
        """``len(postings(x))`` without materializing anything."""
        if 0 <= x < len(self._postings):
            return len(self._postings[x])
        return 0

    def memory_entries(self) -> int:
        """Total posting entries — the Exp-2 memory proxy for LC-Join."""
        return sum(len(p) for p in self._postings)
