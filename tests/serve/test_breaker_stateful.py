"""Model-based stateful testing of :class:`CircuitBreaker`.

A Hypothesis state machine drives the breaker exactly the way the
serving supervisor does — ``admit()`` first, then a success/failure
verdict only when admission said ``"engine"`` — against a transparent
model over the same fake clock, asserting after every step:

* **legal transitions only** — the state is always one of
  closed/open/half-open, and every observed edge is one of
  ``closed→open``, ``open→half_open``, ``half_open→open``,
  ``half_open→closed``;
* **probe accounting** — half-open admits exactly one engine probe at
  a time; every concurrent admit degrades, and the probe's verdict
  (and nothing else) decides the next state;
* **degraded marking** — every admit that does not run on the engine
  is counted in ``degraded_total``: the supervisor builds the
  ``degraded: true`` / 503 answer off exactly this path, so a stale
  result can never be served without the marker;
* **threshold discipline** — the breaker opens exactly when
  ``threshold`` consecutive engine failures accumulate, and a success
  resets the streak.

Deterministic (injected clock), so every failure shrinks to a tiny
transition trace.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
)

from repro.serve.supervision import BREAKER_STATES, CircuitBreaker

THRESHOLD = 3
COOLDOWN = 7.0

LEGAL_EDGES = {
    ("closed", "open"),
    ("open", "half_open"),
    ("half_open", "open"),
    ("half_open", "closed"),
}


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class BreakerMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.clock = FakeClock()
        self.edges: list[tuple[str, str]] = []
        self.breaker = CircuitBreaker(
            THRESHOLD,
            COOLDOWN,
            clock=self.clock,
            on_transition=lambda o, n: self.edges.append((o, n)),
        )
        # -- the model ------------------------------------------------
        self.m_state = "closed"
        self.m_failures = 0  # consecutive engine failures
        self.m_probe = False
        self.m_opened_at = 0.0
        self.m_degraded = 0

    # -- model mechanics ----------------------------------------------
    def _m_lazy(self) -> str:
        """The model's view of state(), applying open→half_open."""
        if (
            self.m_state == "open"
            and self.clock.now - self.m_opened_at >= COOLDOWN
        ):
            self.m_state = "half_open"
        return self.m_state

    def _m_admit(self) -> str:
        state = self._m_lazy()
        if state == "closed":
            return "engine"
        if state == "half_open" and not self.m_probe:
            self.m_probe = True
            return "engine"
        self.m_degraded += 1
        return "degraded"

    def _m_record(self, success: bool) -> None:
        if success:
            self.m_failures = 0
            if self.m_state == "half_open":
                self.m_probe = False
                self.m_state = "closed"
            return
        self.m_failures += 1
        state = self._m_lazy()
        if state == "half_open":
            self.m_probe = False
            self.m_opened_at = self.clock.now
            self.m_state = "open"
        elif state == "closed" and self.m_failures >= THRESHOLD:
            self.m_opened_at = self.clock.now
            self.m_state = "open"

    # -- transitions ---------------------------------------------------
    @rule(success=st.booleans())
    def query(self, success):
        """One supervised query: admit, then verdict iff on the engine."""
        verdict = self.breaker.admit()
        assert verdict == self._m_admit()
        if verdict == "engine":
            if success:
                self.breaker.record_success()
            else:
                self.breaker.record_failure()
            self._m_record(success)

    @rule()
    def query_without_verdict(self):
        """An admitted query that exits with no engine verdict — a
        client parameter error or a cancellation.  The supervisor calls
        ``release_probe()`` on those paths; a leaked slot would pin the
        breaker half-open with every later admit degrading."""
        verdict = self.breaker.admit()
        assert verdict == self._m_admit()
        if verdict == "engine":
            self.breaker.release_probe()
            self.m_probe = False

    @rule(seconds=st.floats(min_value=0.0, max_value=3 * COOLDOWN))
    def advance(self, seconds):
        self.clock.now += seconds

    # -- invariants ----------------------------------------------------
    @invariant()
    def states_agree(self):
        assert self.breaker.state() == self._m_lazy()
        assert self.breaker.state() in BREAKER_STATES

    @invariant()
    def only_legal_edges(self):
        for old, new in self.edges:
            assert old != new
            assert (old, new) in LEGAL_EDGES

    @invariant()
    def degraded_is_marked(self):
        # Every non-engine admission was counted: the supervisor can
        # only reach the stale-cache answer through this counter's
        # code path, so count parity == marker parity.
        assert self.breaker.degraded_total == self.m_degraded

    @invariant()
    def probe_accounting(self):
        assert self.breaker._probe_in_flight == self.m_probe
        assert self.breaker.probe_failures_total <= self.breaker.probes_total

    @invariant()
    def failure_streak_agrees(self):
        assert self.breaker.consecutive_failures == self.m_failures

    @invariant()
    def describe_is_jsonable(self):
        import json

        doc = self.breaker.describe()
        assert doc["state"] == self.breaker.state()
        json.dumps(doc)


TestBreakerStateful = BreakerMachine.TestCase
TestBreakerStateful.settings = settings(max_examples=60, deadline=None)
