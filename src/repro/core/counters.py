"""Instrumentation counters for the skyline algorithms.

The paper's efficiency arguments are about *work avoided*: fewer
candidate vertices examined, comparisons cut short by the bloom filter,
false positives corrected by ``NBRcheck``.  Every skyline algorithm
accepts an optional :class:`SkylineCounters` and increments it as it
runs, so benchmarks (and the bloom ablation) can report those quantities
directly instead of inferring them from wall-clock time.

A kernel tallies only values it already computes, on the one path it
takes whether or not counters are passed: a counter describes the work
that kernel did, not the work of a scan it avoids.  The block refine,
for one, reports its pivot-row pair tests and no ``degree_skips`` or
``dominated_skips`` of its own, and the vectorized filter phase its
pretest survivors; only the scalar references keep the paper loops'
early-exit tallies.

Uncounted calls receive :data:`NULL_COUNTERS` (the null-object pattern),
whose increments are cheap attribute writes on a shared throwaway — no
``if counters is not None`` branches in the hot loops.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

__all__ = ["SkylineCounters", "NULL_COUNTERS"]


@dataclass
class SkylineCounters:
    """Mutable tally of the work a skyline computation performed.

    Attributes
    ----------
    vertices_examined:
        Outer-loop vertices actually processed (not skipped by the
        ``O(u) != u`` early-out).
    counter_updates:
        ``T(w)`` increments (Alg. 1/2) — the dominant term of BaseSky.
    pair_tests:
        Candidate dominator pairs ``(u, w)`` whose inclusion was tested.
    degree_skips:
        Pairs discarded by the ``deg(w) < deg(u)`` test.
    dominated_skips:
        Pairs discarded because the potential dominator was itself
        already dominated (``O(w) != w``).
    bloom_subset_rejects:
        Pairs discarded by the whole-filter ``BF(u) & BF(w) != BF(u)``
        pre-check (Alg. 3 line 14).
    bloom_member_checks / bloom_member_rejects:
        ``BFcheck`` invocations and the ones that proved non-membership.
    nbr_checks:
        Exact adjacency-list validations (``NBRcheck``).
    bloom_false_positives:
        ``BFcheck`` said "maybe" but ``NBRcheck`` said no — the quantity
        bounded by Lemma 2.
    dominations_found:
        ``O(u)`` assignments (each vertex leaves the skyline at most once).
    """

    vertices_examined: int = 0
    counter_updates: int = 0
    pair_tests: int = 0
    degree_skips: int = 0
    dominated_skips: int = 0
    bloom_subset_rejects: int = 0
    bloom_member_checks: int = 0
    bloom_member_rejects: int = 0
    nbr_checks: int = 0
    bloom_false_positives: int = 0
    dominations_found: int = 0
    extra: dict = field(default_factory=dict)

    def as_dict(self) -> dict[str, int]:
        """All integer counters as a plain dict (for bench reporting)."""
        result = {}
        for f in fields(self):
            if f.name == "extra":
                continue
            result[f.name] = getattr(self, f.name)
        return result

    def reset(self) -> None:
        """Zero every counter in place."""
        for f in fields(self):
            if f.name == "extra":
                self.extra = {}
            else:
                setattr(self, f.name, 0)


#: Shared sink for algorithms invoked without instrumentation.  Its values
#: are meaningless (it is written to by everyone); never read from it.
NULL_COUNTERS = SkylineCounters()
