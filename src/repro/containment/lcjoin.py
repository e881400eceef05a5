"""Set-containment join via list crosscutting (LC-Join style).

Given a query set ``Q`` and a data set ``S``, find for every query
``q`` all records ``s ∈ S`` with ``q ⊆ s``.  The core idea of LC-Join
(Deng et al., ICDE'19) as used here: the answer set for ``q`` is the
intersection of the inverted-index posting lists of ``q``'s elements, and
intersecting *from the rarest list outward* ("crosscutting") keeps the
intermediate candidate sets small with early termination as soon as the
intersection becomes empty.

The pairwise step is a galloping binary search, or ``np.intersect1d``
once both sides are long enough to amortize the call (see
:func:`_intersect_sorted`).

This module is generic over :class:`RecordSet`; the skyline-specific
adapter lives in :mod:`repro.core.join_sky`.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as _np

from repro.containment.inverted import InvertedIndex
from repro.containment.records import RecordSet

__all__ = ["ContainmentJoin"]

#: ``np.intersect1d`` floor for the scalar crosscut's pairwise step:
#: both sides must be at least this long (and ndarrays) before the
#: vectorized set intersection beats the galloping loop's early exits.
INTERSECT_VECTOR_MIN = 16


def _intersect_sorted(a, b):
    """Intersection of two sorted unique sequences of ints.

    Lists or ndarrays; ndarrays of at least :data:`INTERSECT_VECTOR_MIN`
    on both sides take the ``np.intersect1d`` fast path
    (``assume_unique`` holds: postings and their intersections never
    repeat an ID).  Both paths return the same IDs in ascending order.
    """
    if (
        isinstance(a, _np.ndarray)
        and isinstance(b, _np.ndarray)
        and len(a) >= INTERSECT_VECTOR_MIN
        and len(b) >= INTERSECT_VECTOR_MIN
    ):
        return _np.intersect1d(a, b, assume_unique=True)
    if len(a) > len(b):
        a, b = b, a
    out: list[int] = []
    from bisect import bisect_left

    lo = 0
    len_b = len(b)
    for x in a:
        lo = bisect_left(b, x, lo)
        if lo == len_b:
            break
        if b[lo] == x:
            out.append(x)
            lo += 1
    return out


class ContainmentJoin:
    """Joins a query :class:`RecordSet` against a data :class:`RecordSet`.

    >>> data = RecordSet([{1, 2, 3}, {2, 3}, {4}])
    >>> queries = RecordSet([{2, 3}])
    >>> ContainmentJoin(data).containing_records(queries.record(0))
    [0, 1]
    """

    def __init__(self, data: RecordSet):
        self._data = data
        self._index = InvertedIndex(data)

    @property
    def index(self) -> InvertedIndex:
        """The underlying inverted index (exposed for memory accounting)."""
        return self._index

    def containing_records(
        self, query: tuple[int, ...], *, limit: Optional[int] = None
    ) -> list[int]:
        """All record IDs whose record is a superset of ``query``.

        An empty query matches every record (standard join semantics; the
        skyline adapter special-cases isolated vertices before calling).
        ``limit`` stops early once that many results are known — the
        skyline use only needs to know whether a suitable dominator
        exists at all.  Always a fresh list of Python ints, never a view
        of index internals.
        """
        if not query:
            result = list(range(len(self._data)))
            return result[:limit] if limit is not None else result
        # Crosscutting: intersect posting lists rarest-first.
        lists = sorted(
            (self._index.postings(x) for x in query), key=len
        )
        candidates = lists[0]
        for postings in lists[1:]:
            if not len(candidates):
                return []
            candidates = _intersect_sorted(candidates, postings)
        if limit is not None:
            candidates = candidates[:limit]
        return [int(r) for r in candidates]

    def join(
        self, queries: RecordSet
    ) -> Iterator[tuple[int, list[int]]]:
        """Yield ``(query_id, [record ids containing it])`` for all queries."""
        for qid in range(len(queries)):
            yield qid, self.containing_records(queries.record(qid))
