"""Deterministic fault injection for the serving layer.

Chaos testing a server is only useful if the chaos is reproducible: a
CI failure under "the third query on graph ``g`` raised" must replay
identically on a laptop.  A :class:`ServeFaultPlan` is that schedule as
data — a map from ``(graph, dispatch_index)`` to a fault kind that the
serving supervisor (:mod:`repro.serve.supervision`) consults on the
engine thread each time it dispatches a query.
"""

from __future__ import annotations

from random import Random
from typing import Mapping, Optional

__all__ = ["SERVE_FAULT_KINDS", "ServeFaultPlan"]

#: Fault kinds the serving layer can inject: these fire on the engine
#: thread, at the moment a query is dispatched onto a graph's session.
SERVE_FAULT_KINDS = (
    "engine-exception",
    "session-poison",
    "hang",
    "slow",
)


class ServeFaultPlan:
    """A reproducible schedule of serving-layer faults.

    A plan keys on ``(graph, dispatch_index)`` — the *n*-th time the engine thread dispatches a query for ``graph``
    (retries consume indices too, so a fault on attempt 0 followed by a
    clean retry is the cell ``(g, 0): kind`` with ``(g, 1)`` absent).
    ``(graph, None)`` is a wildcard matching every dispatch of that
    graph — the way to model a persistently broken graph.

    Kinds (performed by the serving supervisor, on the engine thread):

    ``"engine-exception"``
        raise ``RuntimeError`` before the query runs — an uncaught
        engine bug.
    ``"session-poison"``
        tear the graph's :class:`~repro.core.api.EngineSession` down
        (dropping its cached skyline) out from under the query, then
        raise — a poisoned session the supervisor must rebuild.
    ``"hang"``
        sleep :attr:`hang_seconds` before running, in slices that
        check the query deadline — meant to blow the deadline, so the
        query is answered 503 without a retry or a rebuild.
    ``"slow"``
        sleep :attr:`slow_seconds`, then run normally — latency jitter
        that must *not* trip recovery under a sane deadline.
    """

    __slots__ = ("faults", "slow_seconds", "hang_seconds")

    def __init__(
        self,
        faults: Mapping[tuple, str],
        *,
        slow_seconds: float = 0.05,
        hang_seconds: float = 5.0,
    ):
        for cell, kind in faults.items():
            if kind not in SERVE_FAULT_KINDS:
                raise ValueError(
                    f"unknown serve fault kind {kind!r} at {cell}; "
                    f"choose from {SERVE_FAULT_KINDS}"
                )
        self.faults = dict(faults)
        self.slow_seconds = slow_seconds
        self.hang_seconds = hang_seconds

    @classmethod
    def single(cls, kind: str, graph: str, index: int = 0, **kw):
        """A plan injecting one fault into one dispatch of one graph."""
        return cls({(graph, index): kind}, **kw)

    @classmethod
    def always(cls, kind: str, graph: str, **kw):
        """A plan faulting *every* dispatch of ``graph`` (wildcard cell)."""
        return cls({(graph, None): kind}, **kw)

    @classmethod
    def seeded(
        cls,
        seed: int,
        graphs,
        *,
        max_calls: int = 128,
        rate: float = 0.15,
        kinds: tuple[str, ...] = ("engine-exception", "session-poison", "slow"),
        **kw,
    ) -> "ServeFaultPlan":
        """A random-but-reproducible plan drawn from ``seed``.

        Hangs are excluded by default: property tests sweep many seeds
        and each hang costs a full per-query deadline.
        """
        # Validate the whole menu up front: sampling might never draw a
        # typo'd kind into a cell, and a bad plan must fail every time.
        for kind in kinds:
            if kind not in SERVE_FAULT_KINDS:
                raise ValueError(
                    f"unknown serve fault kind {kind!r}; "
                    f"choose from {SERVE_FAULT_KINDS}"
                )
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"fault rate must be in [0, 1], got {rate}")
        rng = Random(seed)
        faults = {
            (graph, index): rng.choice(kinds)
            for graph in graphs
            for index in range(max_calls)
            if rng.random() < rate
        }
        return cls(faults, **kw)

    def fault_for(self, graph: str, index: int) -> Optional[str]:
        """The fault scheduled for this dispatch, if any (wildcard-aware)."""
        kind = self.faults.get((graph, index))
        if kind is None:
            kind = self.faults.get((graph, None))
        return kind

    def __getstate__(self):
        return (self.faults, self.slow_seconds, self.hang_seconds)

    def __setstate__(self, state):
        self.faults, self.slow_seconds, self.hang_seconds = state

    def __eq__(self, other):
        return (
            isinstance(other, ServeFaultPlan)
            and self.__getstate__() == other.__getstate__()
        )

    def __repr__(self):
        return (
            f"ServeFaultPlan({self.faults!r}, "
            f"slow_seconds={self.slow_seconds}, "
            f"hang_seconds={self.hang_seconds})"
        )
