"""Bounded priority queue with deadlines and backpressure.

The admission-control heart of the serving layer, kept free of asyncio
so a Hypothesis state machine can drive every transition against a
model with a fake clock (``tests/serve/test_queue_stateful.py``):

* **Bounded** — :meth:`BoundedRequestQueue.push` raises
  :class:`QueueFullError` once ``capacity`` live requests are pending.
  The server maps that to a 429: under overload the queue *rejects*,
  it never grows without bound.  (Purging expired requests happens
  before the capacity check, so a stale backlog cannot wedge the
  server into rejecting forever.)
* **Priority** — :meth:`BoundedRequestQueue.pop` returns the one most
  urgent live request, whatever its graph: lower ``priority`` values
  dispatch first; ties break FIFO by arrival sequence.  Implemented as
  a heap with lazy deletion.
* **Deadlines** — each request may carry an absolute deadline (same
  clock as the queue's).  An expired request is completed exceptionally
  via ``on_expire`` at purge/pop time and **never returned to a
  dispatcher**: expiry is enforced at the queue boundary, so no engine
  cycle is spent on a request whose client has already given up.  A
  request stays in the queue (and counts against ``capacity``) until
  the moment it is popped, so its deadline bounds its whole wait.

Counters (`enqueued`/`dequeued`/`rejected`/`expired`) are recorded on
the queue itself; the server folds them into ``/metrics``, together
with each popped request's wait since ``enqueued_at``.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.errors import ReproError

__all__ = [
    "DEFAULT_PRIORITY",
    "QueueFullError",
    "QueuedRequest",
    "BoundedRequestQueue",
]

#: Priority assigned when a client does not ask for one.  Clients may
#: go more urgent (lower) or less urgent (higher).
DEFAULT_PRIORITY = 10


class QueueFullError(ReproError):
    """Backpressure: the queue is at capacity; the request was rejected."""

    def __init__(self, capacity: int):
        super().__init__(
            f"request queue is full ({capacity} pending); retry later"
        )
        self.capacity = capacity


@dataclass
class QueuedRequest:
    """One admitted request, from enqueue to dispatch (or expiry).

    ``payload`` is opaque to the queue (the server stores the parsed
    query spec plus the asyncio future it will resolve); ``graph``
    names the hosted graph it runs on; ``deadline`` is absolute, on the
    queue's clock, ``None`` meaning "wait forever".
    """

    graph: str
    kind: str
    payload: Any = None
    priority: int = DEFAULT_PRIORITY
    deadline: Optional[float] = None
    seq: int = -1  # assigned by the queue at admission
    enqueued_at: float = field(default=0.0, repr=False)

    def expired(self, now: float) -> bool:
        """Whether the deadline has passed as of ``now`` (monotonic)."""
        return self.deadline is not None and now >= self.deadline


class BoundedRequestQueue:
    """A bounded, deadline-aware priority queue of :class:`QueuedRequest`.

    Parameters
    ----------
    capacity:
        Maximum number of live (admitted, not yet dispatched or
        expired) requests.
    on_expire:
        Called once per request whose deadline passed while queued —
        the server uses it to fail the request's future.  Never called
        for dispatched requests.
    clock:
        Monotonic time source; injectable for deterministic tests.

    Not thread-safe: the server drives it from one event loop, the
    tests from one state machine.
    """

    def __init__(
        self,
        capacity: int,
        *,
        on_expire: Optional[Callable[[QueuedRequest], None]] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if capacity < 1:
            raise ReproError(
                f"queue capacity must be >= 1, got {capacity}"
            )
        self.capacity = capacity
        self._on_expire = on_expire
        self._clock = clock
        self._heap: list[tuple[int, int, QueuedRequest]] = []
        self._live: dict[int, QueuedRequest] = {}
        self._seq = itertools.count()
        # -- counters, surfaced via /metrics ---------------------------
        self.enqueued_total = 0
        self.dequeued_total = 0
        self.rejected_total = 0
        self.expired_total = 0

    # -- introspection -------------------------------------------------
    def __len__(self) -> int:
        return len(self._live)

    @property
    def depth(self) -> int:
        """Live requests currently pending (the bounded quantity)."""
        return len(self._live)

    def pending_by_graph(self) -> dict[str, int]:
        """Live request count per graph (the /health queue breakdown).

        Lets an operator see whether a backlog is pinned to one
        degraded graph or spread across the fleet.
        """
        counts: dict[str, int] = {}
        for request in self._live.values():
            counts[request.graph] = counts.get(request.graph, 0) + 1
        return dict(sorted(counts.items()))

    def counters(self) -> dict[str, int]:
        """Lifetime admission/dispatch/rejection/expiry totals + depth."""
        return {
            "depth": self.depth,
            "capacity": self.capacity,
            "enqueued_total": self.enqueued_total,
            "dequeued_total": self.dequeued_total,
            "rejected_total": self.rejected_total,
            "expired_total": self.expired_total,
        }

    # -- transitions ---------------------------------------------------
    def _expire(self, request: QueuedRequest) -> None:
        self.expired_total += 1
        if self._on_expire is not None:
            self._on_expire(request)

    def purge_expired(self, now: Optional[float] = None) -> int:
        """Expire every live request whose deadline has passed."""
        if now is None:
            now = self._clock()
        stale = [r for r in self._live.values() if r.expired(now)]
        for request in stale:
            del self._live[request.seq]
            self._expire(request)
        return len(stale)

    def push(self, request: QueuedRequest) -> QueuedRequest:
        """Admit ``request`` or raise :class:`QueueFullError`.

        Assigns the arrival sequence number and enqueue timestamp.
        A request born expired is admitted and expired on the spot
        (counted in both totals) rather than rejected as overload —
        the client gets the deadline error its timeout asked for.
        """
        now = self._clock()
        self.purge_expired(now)
        if len(self._live) >= self.capacity:
            self.rejected_total += 1
            raise QueueFullError(self.capacity)
        request.seq = next(self._seq)
        request.enqueued_at = now
        self.enqueued_total += 1
        if request.expired(now):
            self._expire(request)
            return request
        self._live[request.seq] = request
        heapq.heappush(
            self._heap, (request.priority, request.seq, request)
        )
        return request

    def pop(self) -> Optional[QueuedRequest]:
        """The most urgent live request, or ``None`` when none is left.

        Every stale request is expired first, so depth stays truthful
        and an expired request is never returned.
        """
        self.purge_expired()
        while self._heap:
            _, seq, request = heapq.heappop(self._heap)
            if self._live.pop(seq, None) is None:  # purged earlier
                continue
            self.dequeued_total += 1
            return request
        return None

    def drain(self) -> list[QueuedRequest]:
        """Remove and return every live request (shutdown path)."""
        pending = sorted(
            self._live.values(), key=lambda r: (r.priority, r.seq)
        )
        self._live.clear()
        self._heap.clear()
        return pending
