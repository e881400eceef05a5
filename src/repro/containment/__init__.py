"""Generic set-containment machinery (the LC-Join baseline substrate).

* :class:`~repro.containment.records.RecordSet` — integer-set records.
* :class:`~repro.containment.inverted.InvertedIndex` — element postings.
* :class:`~repro.containment.lcjoin.ContainmentJoin` — rarest-first
  list-crosscutting containment join.
"""

from repro.containment.inverted import InvertedIndex
from repro.containment.lcjoin import ContainmentJoin
from repro.containment.records import RecordSet

__all__ = ["InvertedIndex", "ContainmentJoin", "RecordSet"]
