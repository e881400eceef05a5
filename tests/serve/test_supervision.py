"""Unit tests for the self-healing layer (:mod:`repro.serve.supervision`).

Three surfaces:

* :class:`CircuitBreaker` as a pure state machine over an injected
  clock — transitions, single-probe accounting, counters (the
  Hypothesis model-based sweep lives in ``test_breaker_stateful.py``);
* :class:`Heartbeat` — the /health stall verdict;
* :class:`EngineSupervisor` end-to-end against a *real*
  :class:`GraphEntry` with deterministic injected faults: transient
  faults heal (retry → bit-for-bit result + rebuilt session),
  persistent faults open the breaker (degraded cached skyline for
  ``skyline``, 503 + ``Retry-After`` for uncacheable kinds) and then
  cost one probe per cooldown, a hang stops at the query deadline
  (503, no retry, no rebuild), and client errors never charge the
  breaker.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.core.filter_refine import filter_refine_sky
from repro.errors import ParameterError
from repro.harness.faults import ServeFaultPlan
from repro.serve.metrics import ServerMetrics
from repro.serve.registry import GraphRegistry, execute_query
from repro.serve.server import ServeConfig
from repro.serve.supervision import (
    CircuitBreaker,
    EngineSupervisor,
    Heartbeat,
    SupervisionConfig,
)
from repro.workloads import load


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def advance(self, seconds: float) -> None:
        self.now += seconds

    def __call__(self) -> float:
        return self.now


# ---------------------------------------------------------------------
# SupervisionConfig
# ---------------------------------------------------------------------
def test_config_validate_rejects_bad_knobs():
    SupervisionConfig().validate()  # defaults are legal
    ServeConfig().validate()
    inf = float("inf")
    # An infinite deadline, timeout or cooldown is legal: "never".
    ServeConfig(
        port=65535,
        default_timeout_s=inf,
        supervision=SupervisionConfig(
            query_deadline_s=inf, breaker_cooldown_s=inf
        ),
    ).validate()
    nan = float("nan")
    for bad in (
        SupervisionConfig(query_deadline_s=0),
        SupervisionConfig(max_query_retries=-1),
        SupervisionConfig(breaker_threshold=0),
        SupervisionConfig(breaker_cooldown_s=-0.5),
        # NaN compares false both ways: a NaN deadline never expires
        # and a NaN cooldown never ends.
        SupervisionConfig(query_deadline_s=nan),
        SupervisionConfig(breaker_cooldown_s=nan),
        ServeConfig(default_timeout_s=nan),
        ServeConfig(supervision=SupervisionConfig(query_deadline_s=nan)),
        ServeConfig(port=-5),
        ServeConfig(port=70000),
    ):
        with pytest.raises(ParameterError) as exc:
            bad.validate()
        assert "\n" not in str(exc.value)


# ---------------------------------------------------------------------
# CircuitBreaker
# ---------------------------------------------------------------------
def test_breaker_opens_after_threshold_consecutive_failures():
    clock = FakeClock()
    breaker = CircuitBreaker(3, 10.0, clock=clock)
    assert breaker.state() == "closed"
    breaker.record_failure()
    breaker.record_failure()
    assert breaker.state() == "closed"  # 2 < threshold
    breaker.record_success()  # success resets the streak
    breaker.record_failure()
    breaker.record_failure()
    assert breaker.state() == "closed"
    breaker.record_failure()
    assert breaker.state() == "open"
    assert breaker.opens_total == 1


def test_breaker_half_open_probe_cycle():
    clock = FakeClock()
    transitions = []
    breaker = CircuitBreaker(
        1, 5.0, clock=clock, on_transition=lambda o, n: transitions.append((o, n))
    )
    breaker.record_failure()
    assert breaker.state() == "open"
    assert breaker.admit() == "degraded"
    clock.advance(5.0)
    assert breaker.state() == "half_open"
    # Exactly one probe; concurrent admits stay degraded.
    assert breaker.admit() == "engine"
    assert breaker.admit() == "degraded"
    assert breaker.probes_total == 1
    # Probe failure: straight back to open with a fresh cooldown.
    breaker.record_failure()
    assert breaker.state() == "open"
    assert breaker.probe_failures_total == 1
    clock.advance(5.0)
    assert breaker.admit() == "engine"  # second probe
    breaker.record_success()
    assert breaker.state() == "closed"
    assert breaker.closes_total == 1
    assert transitions == [
        ("closed", "open"),
        ("open", "half_open"),
        ("half_open", "open"),
        ("open", "half_open"),
        ("half_open", "closed"),
    ]


def test_breaker_release_probe_frees_the_slot_without_a_verdict():
    """A probe that exits with no verdict (client 400, cancellation)
    must hand the slot back, or the breaker sticks half-open forever."""
    clock = FakeClock()
    breaker = CircuitBreaker(1, 5.0, clock=clock)
    breaker.record_failure()
    clock.advance(5.0)
    assert breaker.admit() == "engine"  # the probe
    breaker.release_probe()
    # Still half-open, and the *next* admit becomes a fresh probe
    # instead of degrading behind a leaked slot.
    assert breaker.state() == "half_open"
    assert breaker.admit() == "engine"
    assert breaker.probes_total == 2
    breaker.record_success()
    assert breaker.state() == "closed"
    # No-op outside a probe: a closed breaker is unaffected.
    breaker.release_probe()
    assert breaker.state() == "closed" and breaker.admit() == "engine"


def test_breaker_retry_after_floor():
    clock = FakeClock()
    breaker = CircuitBreaker(1, 30.0, clock=clock)
    breaker.record_failure()
    assert breaker.retry_after_s() == pytest.approx(30.0)
    clock.advance(29.5)
    assert breaker.retry_after_s() >= 1.0  # header floor


# ---------------------------------------------------------------------
# Heartbeat
# ---------------------------------------------------------------------
def test_heartbeat_stall_verdict():
    clock = FakeClock()
    hb = Heartbeat(clock)
    snap = hb.snapshot(deadline_s=2.0)
    assert snap["busy"] is False and snap["stalled"] is False
    hb.start_query("karate", "skyline")
    clock.advance(1.0)
    assert hb.snapshot(2.0)["stalled"] is False
    clock.advance(2.0)
    snap = hb.snapshot(2.0)
    assert snap["stalled"] is True and snap["graph"] == "karate"
    assert hb.snapshot(None)["stalled"] is False  # no deadline, no verdict
    hb.finish_query()
    assert hb.snapshot(2.0)["stalled"] is False
    assert hb.queries_started == hb.queries_finished == 1


# ---------------------------------------------------------------------
# EngineSupervisor end-to-end (real GraphEntry, injected faults)
# ---------------------------------------------------------------------
def _supervised(config, fault_plan=None, clock=None):
    registry = GraphRegistry(workers=1)
    registry.register_spec("karate")
    metrics = ServerMetrics()
    kwargs = {} if clock is None else {"clock": clock}
    supervisor = EngineSupervisor(
        config, metrics, fault_plan=fault_plan, **kwargs
    )
    return registry, supervisor, metrics


def _run(coro):
    return asyncio.run(coro)


def test_clean_query_matches_direct_execute():
    registry, supervisor, metrics = _supervised(SupervisionConfig())
    try:
        outcome = _run(
            supervisor.execute(registry.entry("karate"), "skyline", {})
        )
        assert outcome[0] == "ok"
        direct = execute_query(
            GraphRegistry(workers=1).register(
                "karate", load("karate"), source="dataset:karate"
            ),
            "skyline",
            {},
        )
        payload = dict(outcome[1])
        payload.pop("_counters")
        direct.pop("_counters")
        assert payload == direct
        assert metrics.rebuilds == {}
    finally:
        supervisor.close()
        registry.close()


def test_transient_fault_heals_with_bitforbit_retry():
    """Fault on dispatch 0 → rebuild + retry → the exact direct result."""
    plan = ServeFaultPlan.single("engine-exception", "karate", 0)
    registry, supervisor, metrics = _supervised(
        SupervisionConfig(), fault_plan=plan
    )
    try:
        entry = registry.entry("karate")
        outcome = _run(supervisor.execute(entry, "skyline", {}))
        assert outcome[0] == "ok"
        assert metrics.rebuilds == {"karate": 1}
        assert metrics.engine_failures[("karate", "RuntimeError")] == 1
        assert entry.breaker.state() == "closed"  # success reset it
        assert entry.breaker.consecutive_failures == 0
    finally:
        supervisor.close()
        registry.close()


@pytest.mark.parametrize("kind", ["session-poison"])
def test_poison_and_attach_faults_heal_too(kind):
    plan = ServeFaultPlan.single(kind, "karate", 0)
    registry, supervisor, metrics = _supervised(
        SupervisionConfig(), fault_plan=plan
    )
    try:
        entry = registry.entry("karate")
        outcome = _run(supervisor.execute(entry, "skyline", {}))
        assert outcome[0] == "ok"
        assert metrics.rebuilds == {"karate": 1}
    finally:
        supervisor.close()
        registry.close()


def test_slow_fault_is_not_a_failure():
    plan = ServeFaultPlan.always("slow", "karate", slow_seconds=0.01)
    registry, supervisor, metrics = _supervised(
        SupervisionConfig(), fault_plan=plan
    )
    try:
        entry = registry.entry("karate")
        outcome = _run(supervisor.execute(entry, "skyline", {}))
        assert outcome[0] == "ok"
        assert metrics.rebuilds == {}
        assert entry.breaker.consecutive_failures == 0
    finally:
        supervisor.close()
        registry.close()


def test_persistent_fault_opens_breaker_and_degrades():
    """Breaker opens; skyline serves the cached last-good copy, group
    gets 503 + Retry-After; a later probe re-closes the breaker."""
    clock = FakeClock()
    # Dispatch 0 clean (primes the last-good cache), then persistent
    # faults until the plan runs dry at index 40.
    plan = ServeFaultPlan(
        {("karate", i): "engine-exception" for i in range(1, 40)}
    )
    config = SupervisionConfig(
        max_query_retries=0,
        breaker_threshold=2,
        breaker_cooldown_s=10.0,
    )
    registry, supervisor, metrics = _supervised(
        config, fault_plan=plan, clock=clock
    )
    try:
        entry = registry.entry("karate")
        good = _run(supervisor.execute(entry, "skyline", {}))
        assert good[0] == "ok"

        async def fail_until_open():
            # The attempt that trips the threshold already answers from
            # the degraded path, so "degraded" is a legal terminal here;
            # a clean "ok" before the breaker opens would be the bug.
            while entry.breaker is None or entry.breaker.state() != "open":
                outcome = await supervisor.execute(entry, "skyline", {})
                assert outcome[0] != "ok"

        _run(fail_until_open())
        assert entry.breaker.state() == "open"

        # Degraded skyline: a 200-style payload, bit-for-bit the last
        # good one (the graph is immutable), marked by the caller.
        degraded = _run(supervisor.execute(entry, "skyline", {}))
        assert degraded[0] == "degraded"
        expected = {
            k: v for k, v in good[1].items() if k != "_counters"
        }
        assert degraded[1] == expected

        # Uncacheable kinds 503 with a Retry-After header.
        refused = _run(supervisor.execute(entry, "group", {"k": 2}))
        assert refused[0] == "error" and refused[1] == 503
        assert int(refused[3]["Retry-After"]) >= 1

        # Cooldown → half-open probe; the plan is exhausted by index
        # 40 so the probe succeeds and re-closes the breaker.
        supervisor._dispatches["karate"] = 40
        clock.advance(10.0)
        healed = _run(supervisor.execute(entry, "skyline", {}))
        assert healed[0] == "ok"
        assert entry.breaker.state() == "closed"
        assert entry.breaker.closes_total == 1
    finally:
        supervisor.close()
        registry.close()


def test_parameter_error_never_charges_breaker():
    registry, supervisor, metrics = _supervised(SupervisionConfig())
    try:
        entry = registry.entry("karate")
        outcome = _run(
            supervisor.execute(entry, "group", {"k": -1})
        )
        assert outcome == ("error", 400, "k must be >= 0, got -1")
        assert entry.breaker.consecutive_failures == 0
        assert metrics.rebuilds == {}
    finally:
        supervisor.close()
        registry.close()


def test_parameter_error_during_half_open_releases_probe():
    """A client 400 riding the half-open probe must free the slot; a
    leaked slot would pin the breaker half-open (every later query
    degraded) until an operator restart."""
    clock = FakeClock()
    registry, supervisor, metrics = _supervised(
        SupervisionConfig(breaker_threshold=1, breaker_cooldown_s=5.0),
        clock=clock,
    )
    try:
        entry = registry.entry("karate")
        breaker = supervisor.breaker_for(entry)
        breaker.record_failure()  # open
        clock.advance(5.0)  # → half_open
        # Bad per-kind params only surface inside execute_query, on the
        # engine thread — i.e. after this query was admitted as the probe.
        outcome = _run(supervisor.execute(entry, "group", {"k": -1}))
        assert outcome[0] == "error" and outcome[1] == 400
        assert breaker._probe_in_flight is False
        assert breaker.state() == "half_open"
        # The slot is free: the next clean query probes and heals.
        healed = _run(supervisor.execute(entry, "skyline", {}))
        assert healed[0] == "ok"
        assert breaker.state() == "closed"
    finally:
        supervisor.close()
        registry.close()


def test_cancellation_propagates_without_charging_breaker():
    """Task cancellation (shutdown/interrupt) is not an engine verdict:
    no breaker charge, no rebuild, and a held probe slot is released."""
    clock = FakeClock()
    # Long enough for the cancel to land mid-query, short enough that
    # close() (which drains the still-running engine thread) stays fast.
    plan = ServeFaultPlan.always("slow", "karate", slow_seconds=0.6)
    registry, supervisor, metrics = _supervised(
        SupervisionConfig(breaker_threshold=1, breaker_cooldown_s=5.0),
        fault_plan=plan,
        clock=clock,
    )
    try:
        entry = registry.entry("karate")
        breaker = supervisor.breaker_for(entry)
        breaker.record_failure()  # open
        clock.advance(5.0)  # → half_open: the next query is the probe

        async def cancel_mid_probe():
            task = asyncio.ensure_future(
                supervisor.execute(entry, "skyline", {})
            )
            await asyncio.sleep(0.1)  # let the probe reach the engine
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task

        _run(cancel_mid_probe())
        assert breaker._probe_in_flight is False
        assert breaker.state() == "half_open"
        assert breaker.failures_total == 1  # only the seeded failure
        assert metrics.rebuilds == {}
    finally:
        supervisor.close()
        registry.close()


def test_hang_answers_503_then_serves():
    """A hang stops at the query deadline: 503 + Retry-After on the
    first attempt, no retry, no rebuild; the next query is clean."""
    plan = ServeFaultPlan.single("hang", "karate", 0, hang_seconds=5.0)
    config = SupervisionConfig(query_deadline_s=0.3, max_query_retries=1)
    registry, supervisor, metrics = _supervised(config, fault_plan=plan)
    try:
        entry = registry.entry("karate")
        started = time.monotonic()
        outcome = _run(supervisor.execute(entry, "skyline", {}))
        elapsed = time.monotonic() - started
        assert outcome[:2] == ("error", 503)
        assert "deadline" in outcome[2]
        assert outcome[3] == {"Retry-After": "1"}
        # One sliced-sleep checkpoint past the deadline, not 5 s.
        assert elapsed < 2.0
        assert supervisor._dispatches["karate"] == 1  # never retried
        assert metrics.engine_failures == {("karate", "DeadlineExceeded"): 1}
        assert metrics.rebuilds == {}
        assert entry.breaker.consecutive_failures == 1
        snap = supervisor.heartbeat.snapshot(config.query_deadline_s)
        assert snap["busy"] is False and snap["graph"] is None
        assert snap["queries_started"] == snap["queries_finished"] == 1

        healed = _run(supervisor.execute(entry, "skyline", {}))
        assert healed[0] == "ok"
        assert healed[1]["skyline"] == list(
            filter_refine_sky(load("karate")).skyline
        )
        assert entry.breaker.consecutive_failures == 0
    finally:
        supervisor.close()
        registry.close()


def test_persistent_fault_costs_one_probe_per_cooldown():
    """With no rebuild budget, the breaker alone bounds a graph that
    always fails: once open, no query reaches the engine until the
    cooldown passes, and then exactly one probe does."""
    clock = FakeClock()
    plan = ServeFaultPlan.always("engine-exception", "karate")
    config = SupervisionConfig(
        max_query_retries=0, breaker_threshold=2, breaker_cooldown_s=10.0
    )
    registry, supervisor, metrics = _supervised(
        config, fault_plan=plan, clock=clock
    )
    try:
        entry = registry.entry("karate")
        for _ in range(2):
            outcome = _run(supervisor.execute(entry, "group", {"k": 2}))
            assert outcome[:2] == ("error", 503)
        assert entry.breaker.state() == "open"
        assert supervisor._dispatches["karate"] == 2
        for _ in range(5):  # inside the cooldown: nothing dispatched
            outcome = _run(supervisor.execute(entry, "group", {"k": 2}))
            assert outcome[:2] == ("error", 503)
        assert supervisor._dispatches["karate"] == 2
        clock.advance(10.0)
        for _ in range(5):  # one probe, which fails and re-opens
            outcome = _run(supervisor.execute(entry, "group", {"k": 2}))
            assert outcome[:2] == ("error", 503)
        assert supervisor._dispatches["karate"] == 3
        assert entry.breaker.probe_failures_total == 1
        assert entry.breaker.state() == "open"
        assert metrics.rebuilds == {"karate": 3}
    finally:
        supervisor.close()
        registry.close()


def test_per_graph_isolation():
    """A persistently broken graph never degrades its neighbor."""
    plan = ServeFaultPlan.always("engine-exception", "karate")
    config = SupervisionConfig(max_query_retries=0, breaker_threshold=1)
    registry = GraphRegistry(workers=1)
    registry.register_spec("karate")
    registry.register_spec("bombing_proxy")
    metrics = ServerMetrics()
    supervisor = EngineSupervisor(config, metrics, fault_plan=plan)
    try:
        broken = registry.entry("karate")
        healthy = registry.entry("bombing_proxy")
        assert _run(supervisor.execute(broken, "skyline", {}))[0] == "error"
        assert broken.breaker.state() == "open"
        for _ in range(3):
            outcome = _run(supervisor.execute(healthy, "skyline", {}))
            assert outcome[0] == "ok"
        assert healthy.breaker.state() == "closed"
        assert metrics.rebuilds == {"karate": 1}
    finally:
        supervisor.close()
        registry.close()
