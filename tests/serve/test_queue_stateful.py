"""Deterministic stateful testing of :class:`BoundedRequestQueue`.

A Hypothesis :class:`~hypothesis.stateful.RuleBasedStateMachine` drives
enqueue / dequeue / clock-advance / purge transitions against a plain
model (a dict of live requests plus an explicit fake clock) and asserts
after every step:

* **priority order** — every ``pop()`` returns the globally most
  urgent live request across all graphs, ties FIFO by arrival sequence;
* **bounded depth** — the queue never holds more than ``capacity``
  live requests, and a push at capacity raises
  :class:`QueueFullError` (counted as a rejection) instead of growing;
* **expiry at the boundary** — a request whose deadline passed is
  completed via ``on_expire`` exactly once and is **never** returned
  by ``pop`` — expired requests cannot reach an engine;
* **conservation** — every admitted request ends in exactly one of
  {dispatched, expired, still-live, drained}.

The clock is injected, so every run is fully deterministic and every
failure shrinks to a tiny transition sequence.
"""

from __future__ import annotations

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
)

from repro.serve.queue import (
    BoundedRequestQueue,
    QueuedRequest,
    QueueFullError,
)

CAPACITY = 5
GRAPHS = ("g0", "g1")


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class QueueMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.clock = FakeClock()
        self.expired: list[QueuedRequest] = []
        self.queue = BoundedRequestQueue(
            CAPACITY, on_expire=self.expired.append, clock=self.clock
        )
        # Model: seq -> request for everything the model believes live.
        self.model: dict[int, QueuedRequest] = {}
        self.dispatched: list[QueuedRequest] = []
        self.admitted = 0

    # -- helpers -------------------------------------------------------
    def _model_expire(self, now: float) -> None:
        for seq in [
            s for s, r in self.model.items() if r.expired(now)
        ]:
            del self.model[seq]

    def _most_urgent(self, requests) -> QueuedRequest:
        return min(requests, key=lambda r: (r.priority, r.seq))

    # -- transitions ---------------------------------------------------
    @rule(
        graph=st.sampled_from(GRAPHS),
        priority=st.integers(min_value=0, max_value=3),
        ttl=st.one_of(
            st.none(), st.floats(min_value=0.0, max_value=5.0)
        ),
    )
    def enqueue(self, graph, priority, ttl):
        now = self.clock.now
        deadline = None if ttl is None else now + ttl
        request = QueuedRequest(
            graph=graph,
            kind="skyline",
            priority=priority,
            deadline=deadline,
        )
        self._model_expire(now)
        if len(self.model) >= CAPACITY:
            with pytest.raises(QueueFullError):
                self.queue.push(request)
            return
        self.queue.push(request)
        self.admitted += 1
        assert request.seq >= 0, "push must assign the arrival sequence"
        if request.expired(now):
            # Born expired (ttl == 0): expired on the spot, never live.
            assert self.expired and self.expired[-1] is request
        else:
            self.model[request.seq] = request

    @rule(delta=st.floats(min_value=0.25, max_value=3.0))
    def advance_time(self, delta):
        self.clock.now += delta

    @rule()
    def purge(self):
        self.queue.purge_expired()
        self._model_expire(self.clock.now)

    @rule()
    def pop(self):
        now = self.clock.now
        self._model_expire(now)
        request = self.queue.pop()
        if not self.model:
            assert request is None
            return
        assert request is not None, (
            "live requests pending but pop returned nothing"
        )
        expected = self._most_urgent(self.model.values())
        assert request is expected, (
            "pop must return the globally most urgent live request"
        )
        assert not request.expired(now), (
            "an expired request reached the dispatcher"
        )
        del self.model[request.seq]
        self.dispatched.append(request)

    # -- invariants ----------------------------------------------------
    @invariant()
    def depth_matches_model_and_bound(self):
        assert self.queue.depth == len(self.model)
        assert self.queue.depth <= CAPACITY

    @invariant()
    def expired_never_dispatched(self):
        expired_seqs = {r.seq for r in self.expired}
        dispatched_seqs = {r.seq for r in self.dispatched}
        assert not (expired_seqs & dispatched_seqs)

    @invariant()
    def conservation(self):
        # admitted = dispatched + expired + live (drain not exercised
        # mid-run; see test_drain below).
        assert self.admitted == (
            len(self.dispatched) + len(self.expired) + len(self.model)
        )

    @invariant()
    def counters_consistent(self):
        counters = self.queue.counters()
        assert counters["depth"] == self.queue.depth
        assert counters["expired_total"] == len(self.expired)
        assert counters["dequeued_total"] == len(self.dispatched)
        assert counters["enqueued_total"] == self.admitted


TestBoundedQueueStateful = QueueMachine.TestCase
TestBoundedQueueStateful.settings = settings(
    max_examples=60, deadline=None
)


# ---------------------------------------------------------------------
# Directed unit tests for the transitions the machine samples
# ---------------------------------------------------------------------
def _queue(capacity=4, **kwargs):
    clock = FakeClock()
    expired = []
    queue = BoundedRequestQueue(
        capacity, on_expire=expired.append, clock=clock, **kwargs
    )
    return queue, clock, expired


def _request(graph="g", priority=10, deadline=None, kind="skyline"):
    return QueuedRequest(
        graph=graph, kind=kind, priority=priority, deadline=deadline
    )


def test_priority_order_with_fifo_ties():
    queue, _, _ = _queue(capacity=8)
    low = queue.push(_request(priority=20))
    first_urgent = queue.push(_request(priority=1))
    second_urgent = queue.push(_request(priority=1))
    assert [queue.pop() for _ in range(3)] == [
        first_urgent,
        second_urgent,
        low,
    ]
    assert queue.pop() is None


def test_backpressure_rejects_and_counts():
    queue, _, _ = _queue(capacity=2)
    queue.push(_request())
    queue.push(_request())
    with pytest.raises(QueueFullError):
        queue.push(_request())
    assert queue.rejected_total == 1
    assert queue.depth == 2  # bounded: the reject did not grow the queue


def test_expired_requests_never_reach_a_dispatcher():
    queue, clock, expired = _queue(capacity=4)
    doomed = queue.push(_request(deadline=1.0))
    survivor = queue.push(_request(deadline=10.0))
    clock.now = 2.0
    assert queue.pop() is survivor
    assert queue.pop() is None
    assert [r.seq for r in expired] == [doomed.seq]
    assert queue.expired_total == 1


def test_expired_backlog_cannot_wedge_admission():
    queue, clock, expired = _queue(capacity=2)
    queue.push(_request(deadline=1.0))
    queue.push(_request(deadline=1.0))
    clock.now = 5.0
    # Both live slots are stale; a new push purges them and is admitted.
    fresh = queue.push(_request(deadline=10.0))
    assert queue.depth == 1
    assert len(expired) == 2
    assert queue.pop() is fresh


def test_dispatch_is_global_priority_order_across_graphs():
    queue, _, _ = _queue(capacity=8)
    a0 = queue.push(_request(graph="a", priority=0))
    a20 = queue.push(_request(graph="a", priority=20, deadline=1.0))
    b5 = queue.push(_request(graph="b", priority=5))
    assert [queue.pop() for _ in range(3)] == [a0, b5, a20]


def test_deadline_bounds_the_wait_until_pop():
    queue, clock, expired = _queue(capacity=8)
    head = queue.push(_request(graph="a", priority=0))
    doomed = queue.push(_request(graph="a", priority=1, deadline=1.0))
    assert queue.pop() is head
    # The head holds the engine past the next request's deadline: that
    # request is still queued, so a purge expires it and it never pops.
    clock.now = 5.0
    assert queue.purge_expired() == 1
    assert expired == [doomed]
    assert queue.pop() is None
    assert queue.dequeued_total == 1


def test_only_popped_requests_leave_the_capacity_bound():
    queue, _, _ = _queue(capacity=4)
    for _ in range(2):
        queue.push(_request(graph="a"))
    queue.pop()
    for _ in range(3):
        queue.push(_request(graph="b"))
    assert queue.depth == 4
    with pytest.raises(QueueFullError):
        queue.push(_request(graph="b"))


def test_drain_returns_pending_in_priority_order():
    queue, _, _ = _queue(capacity=8)
    late = queue.push(_request(priority=9))
    early = queue.push(_request(priority=1))
    drained = queue.drain()
    assert [r.seq for r in drained] == [early.seq, late.seq]
    assert queue.depth == 0
    assert queue.pop() is None


def test_born_expired_is_expired_not_rejected():
    queue, clock, expired = _queue(capacity=4)
    clock.now = 3.0
    request = queue.push(_request(deadline=2.0))
    assert [r.seq for r in expired] == [request.seq]
    assert queue.depth == 0
    assert queue.rejected_total == 0
