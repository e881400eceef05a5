"""Self-healing supervision for the serving layer.

A long-lived server must survive its engine: a single engine-thread
exception, a poisoned :class:`~repro.core.api.EngineSession`, or a
hung query must degrade one graph's answers, never kill the process.
Three pieces:

:class:`CircuitBreaker`
    A per-graph health state machine (``closed → open → half_open``)
    with an injectable clock, so the Hypothesis suite can drive every
    transition deterministically.  Repeated engine failures on one
    graph open its breaker; while open, queries for that graph are
    answered from the degraded path (cached last-known-good skyline,
    marked ``degraded: true``, or 503 with ``Retry-After`` for
    uncacheable kinds) without touching an engine.  After a cooldown
    the breaker goes half-open and admits exactly one *probe* query;
    a probe success closes the breaker, a probe failure re-opens it.

:class:`EngineSupervisor`
    Owns the server's single engine thread (a one-worker executor) and
    wraps every dispatch: per-query deadline via ``asyncio.wait_for``
    (the watchdog), a heartbeat the ``/health`` endpoint reads, bounded
    retries with seeded exponential backoff, and — on any engine
    failure — a teardown-and-rebuild of the failed graph's session
    (``EngineSession.close`` drops its cached skyline, so the retry
    recomputes it).  A hung query is *abandoned*:
    the executor is replaced so serving continues, the stale thread is
    fenced by a cancel token, and the query is retried or answered 503.
    Rebuilds are budgeted per graph (``max_session_rebuilds``); an
    exhausted budget pins the breaker open — the documented
    "stuck-open" state an operator must resolve (see
    ``docs/serving.md``).

:class:`~repro.harness.faults.ServeFaultPlan`
    The chaos counterpart: deterministic serve-level fault injection
    (engine-exception / session-poison / hang / slow) performed by the
    supervisor at dispatch time,
    keyed on ``(graph, dispatch_index)`` so CI failures replay
    identically.

Every outcome is one of ``("ok", payload)``, ``("degraded", payload)``
or ``("error", status, detail[, headers])`` — the same tuples the
server parks in request futures, so supervision slots into the worker
loop without new exception plumbing.
"""

from __future__ import annotations

import asyncio
import threading
import time
from collections import Counter
from dataclasses import dataclass
from random import Random
from typing import Callable, Optional

from repro.errors import ParameterError
from repro.harness.faults import ServeFaultPlan
from repro.serve.registry import GraphEntry, execute_query

__all__ = [
    "BREAKER_STATES",
    "CircuitBreaker",
    "EngineSupervisor",
    "Heartbeat",
    "SupervisionConfig",
]

#: The legal breaker states, in the order the happy path visits them.
BREAKER_STATES = ("closed", "open", "half_open")


@dataclass(frozen=True)
class SupervisionConfig:
    """Self-healing policy knobs, bundled so one object rides ServeConfig.

    ``query_deadline_s``
        Per-query engine deadline (the watchdog); ``None`` disables the
        timer and only exceptions trigger recovery.
    ``max_query_retries``
        Engine re-attempts per query before it is answered 503.
    ``backoff_base_s`` / ``backoff_cap_s`` / ``seed``
        Exponential backoff before a retry, jittered from ``seed`` so
        recovery timing replays deterministically.
    ``max_session_rebuilds``
        Lifetime session-rebuild budget *per graph*; once exhausted the
        graph's breaker is pinned open (stuck-open, operator action
        required) and no further engine work is attempted for it.
    ``breaker_threshold``
        Consecutive engine failures on one graph that open its breaker.
    ``breaker_cooldown_s``
        Seconds an open breaker waits before going half-open.
    ``degraded_cache``
        Serve the cached last-known-good skyline (marked
        ``degraded: true``) while a breaker is open; off means every
        query on an open breaker gets 503.
    """

    query_deadline_s: Optional[float] = 60.0
    max_query_retries: int = 2
    backoff_base_s: float = 0.01
    backoff_cap_s: float = 0.25
    seed: int = 0
    max_session_rebuilds: int = 8
    breaker_threshold: int = 3
    breaker_cooldown_s: float = 1.0
    degraded_cache: bool = True

    def validate(self) -> None:
        """Reject out-of-range knobs with ParameterError (fail fast)."""
        if self.query_deadline_s is not None and self.query_deadline_s <= 0:
            raise ParameterError(
                "query_deadline_s must be > 0 or None, got "
                f"{self.query_deadline_s}"
            )
        if self.max_query_retries < 0:
            raise ParameterError(
                f"max_query_retries must be >= 0, got {self.max_query_retries}"
            )
        if self.max_session_rebuilds < 0:
            raise ParameterError(
                "max_session_rebuilds must be >= 0, got "
                f"{self.max_session_rebuilds}"
            )
        if self.breaker_threshold < 1:
            raise ParameterError(
                f"breaker_threshold must be >= 1, got {self.breaker_threshold}"
            )
        if self.breaker_cooldown_s < 0:
            raise ParameterError(
                "breaker_cooldown_s must be >= 0, got "
                f"{self.breaker_cooldown_s}"
            )


class CircuitBreaker:
    """Per-graph health state machine: ``closed → open → half_open``.

    Pure bookkeeping over an injectable monotonic clock — no asyncio,
    no threads — so the stateful property suite can drive it against a
    model.  The supervisor calls :meth:`admit` before engine work and
    :meth:`record_success` / :meth:`record_failure` after; everything
    else is derived.

    * ``closed``: queries run on the engine.  ``threshold`` consecutive
      failures trip the breaker open.
    * ``open``: queries take the degraded path.  After ``cooldown_s``
      the next :meth:`admit` becomes the half-open probe.
    * ``half_open``: exactly one probe runs on the engine; concurrent
      queries stay degraded.  Probe success closes the breaker, probe
      failure re-opens it (fresh cooldown).

    A *pinned* breaker (:meth:`pin_open`) is permanently open — the
    rebuild-budget-exhausted state; only an operator restart clears it.
    """

    def __init__(
        self,
        threshold: int,
        cooldown_s: float,
        *,
        clock: Callable[[], float] = time.monotonic,
        on_transition: Optional[Callable[[str, str], None]] = None,
    ):
        if threshold < 1:
            raise ParameterError(
                f"breaker threshold must be >= 1, got {threshold}"
            )
        self.threshold = threshold
        self.cooldown_s = cooldown_s
        self._clock = clock
        self._on_transition = on_transition
        self._state = "closed"
        self._opened_at = 0.0
        self._probe_in_flight = False
        self.pinned_reason: Optional[str] = None
        self.consecutive_failures = 0
        # -- lifetime counters (surfaced via /metrics and /health) -----
        self.failures_total = 0
        self.opens_total = 0
        self.closes_total = 0
        self.probes_total = 0
        self.probe_failures_total = 0
        self.degraded_total = 0

    # -- transitions ---------------------------------------------------
    def _transition(self, new_state: str) -> None:
        old, self._state = self._state, new_state
        if old != new_state and self._on_transition is not None:
            self._on_transition(old, new_state)

    def state(self) -> str:
        """The current state, applying the lazy open→half_open step."""
        if (
            self._state == "open"
            and self.pinned_reason is None
            and self._clock() - self._opened_at >= self.cooldown_s
        ):
            self._transition("half_open")
        return self._state

    def admit(self) -> str:
        """Route one query: ``"engine"`` (run it) or ``"degraded"``.

        In ``half_open`` exactly one caller gets ``"engine"`` (the
        probe) until its verdict arrives; everyone else — and every
        caller while ``open`` — gets ``"degraded"`` and is counted.
        """
        state = self.state()
        if state == "closed":
            return "engine"
        if state == "half_open" and not self._probe_in_flight:
            self._probe_in_flight = True
            self.probes_total += 1
            return "engine"
        self.degraded_total += 1
        return "degraded"

    def record_success(self) -> None:
        """An engine query (or the probe) succeeded."""
        self.consecutive_failures = 0
        if self._state == "half_open":
            self._probe_in_flight = False
            self.closes_total += 1
            self._transition("closed")

    def release_probe(self) -> None:
        """Give the probe slot back without a verdict.

        For exits that say nothing about engine health — a client
        parameter error, a query abandoned mid-recovery, task
        cancellation at shutdown.  The breaker stays ``half_open`` and
        the next :meth:`admit` becomes the probe; without this the slot
        would leak and pin the breaker half-open (every query degraded)
        forever.  No-op unless a probe is actually in flight.
        """
        self._probe_in_flight = False

    def record_failure(self) -> None:
        """An engine query (or the probe) failed."""
        self.failures_total += 1
        self.consecutive_failures += 1
        state = self.state()
        if state == "half_open":
            # Probe failed: straight back to open, fresh cooldown.
            self._probe_in_flight = False
            self.probe_failures_total += 1
            self._opened_at = self._clock()
            self._transition("open")
            return
        if state == "closed" and self.consecutive_failures >= self.threshold:
            self.opens_total += 1
            self._opened_at = self._clock()
            self._transition("open")

    def pin_open(self, reason: str) -> None:
        """Pin the breaker open permanently (stuck-open; operator action)."""
        self.pinned_reason = reason
        self._probe_in_flight = False
        if self._state != "open":
            self.opens_total += 1
            self._opened_at = self._clock()
            self._transition("open")

    # -- introspection -------------------------------------------------
    def retry_after_s(self) -> float:
        """Seconds until the next probe is possible (>= 1 for headers)."""
        if self.pinned_reason is not None:
            return max(1.0, self.cooldown_s)
        remaining = self.cooldown_s - (self._clock() - self._opened_at)
        return max(1.0, remaining)

    def describe(self) -> dict:
        """The /health row for this breaker (state + counters)."""
        doc = {
            "state": self.state(),
            "consecutive_failures": self.consecutive_failures,
            "threshold": self.threshold,
            "failures_total": self.failures_total,
            "opens_total": self.opens_total,
            "closes_total": self.closes_total,
            "probes_total": self.probes_total,
            "probe_failures_total": self.probe_failures_total,
            "degraded_total": self.degraded_total,
        }
        if self.pinned_reason is not None:
            doc["pinned"] = self.pinned_reason
        return doc


class Heartbeat:
    """The engine thread's pulse, read lock-free by ``/health``.

    The engine thread beats at query start and finish; the watchdog
    verdict (``stalled``) is computed at read time against the
    per-query deadline, so a wedged engine is visible from the outside
    even while the in-flight ``wait_for`` is still counting down.
    """

    def __init__(self, clock: Callable[[], float] = time.monotonic):
        self._clock = clock
        self.started_at = clock()
        self.last_beat = self.started_at
        self.busy_since: Optional[float] = None
        self.graph: Optional[str] = None
        self.kind: Optional[str] = None
        self.queries_started = 0
        self.queries_finished = 0

    def start_query(self, graph: str, kind: str) -> None:
        """Beat once and mark the engine busy on ``graph``/``kind``."""
        now = self._clock()
        self.last_beat = now
        self.busy_since = now
        self.graph = graph
        self.kind = kind
        self.queries_started += 1

    def finish_query(self) -> None:
        """Beat once and mark the engine idle again."""
        self.last_beat = self._clock()
        self.busy_since = None
        self.graph = None
        self.kind = None
        self.queries_finished += 1

    def snapshot(self, deadline_s: Optional[float]) -> dict:
        """The /health ``engine`` block, including the stall verdict."""
        now = self._clock()
        busy = self.busy_since is not None
        busy_s = (now - self.busy_since) if busy else 0.0
        return {
            "busy": busy,
            "busy_s": round(busy_s, 6),
            "graph": self.graph,
            "kind": self.kind,
            "queries_started": self.queries_started,
            "queries_finished": self.queries_finished,
            "seconds_since_beat": round(now - self.last_beat, 6),
            "stalled": bool(
                busy and deadline_s is not None and busy_s > deadline_s
            ),
        }


class _AbandonedQuery(Exception):
    """Raised inside a fenced engine thread after its query was abandoned."""


class EngineSupervisor:
    """The server's supervised engine thread plus per-graph breakers.

    One instance per :class:`~repro.serve.server.SkylineServer`.  All
    coordination happens on the server's event loop; only
    :meth:`_run_query` executes on the engine thread.
    """

    def __init__(
        self,
        config: SupervisionConfig,
        metrics,
        *,
        fault_plan: Optional[ServeFaultPlan] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        config.validate()
        self.config = config
        self.metrics = metrics
        self.fault_plan = fault_plan
        self._clock = clock
        self._rng = Random(config.seed)
        self.heartbeat = Heartbeat(clock)
        self._executor = self._new_executor()
        self._abandoned: list = []  # executors replaced after a hang
        self._dispatches: Counter = Counter()  # graph -> engine dispatches
        self._closed = False

    @staticmethod
    def _new_executor():
        from concurrent.futures import ThreadPoolExecutor

        return ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-engine"
        )

    # -- breakers ------------------------------------------------------
    def breaker_for(self, entry: GraphEntry) -> CircuitBreaker:
        """The entry's breaker, created (and attached) on first use."""
        if entry.breaker is None:
            name = entry.name
            entry.breaker = CircuitBreaker(
                self.config.breaker_threshold,
                self.config.breaker_cooldown_s,
                clock=self._clock,
                on_transition=(
                    lambda old, new: self.metrics.record_breaker_transition(
                        name, old, new
                    )
                ),
            )
        return entry.breaker

    # -- the one public entry point ------------------------------------
    async def execute(
        self,
        entry: GraphEntry,
        kind: str,
        params: dict,
        *,
        closing: Callable[[], bool] = lambda: False,
    ) -> tuple:
        """Run one query under full supervision; returns an outcome tuple.

        ``("ok", payload)`` — engine result, bit-for-bit the direct API
        call; ``("degraded", payload)`` — cached last-known-good
        skyline served while the breaker is open; ``("error", status,
        detail, headers)`` — classified failure, never an exception.
        """
        breaker = self.breaker_for(entry)
        if breaker.admit() == "degraded":
            return self._degraded_outcome(entry, breaker, kind)

        loop = asyncio.get_running_loop()
        attempt = 0
        while True:
            fault = None
            if self.fault_plan is not None:
                index = self._dispatches[entry.name]
                fault = self.fault_plan.fault_for(entry.name, index)
            self._dispatches[entry.name] += 1
            cancelled = threading.Event()
            try:
                result = await asyncio.wait_for(
                    loop.run_in_executor(
                        self._executor,
                        self._run_query,
                        entry,
                        kind,
                        params,
                        fault,
                        cancelled,
                    ),
                    timeout=self.config.query_deadline_s,
                )
            except asyncio.TimeoutError:
                cancelled.set()
                self._abandon_executor()
                # The fenced thread skips its own heartbeat updates once
                # the token is set, so settle the books here: the engine
                # is idle again (a fresh executor) and the abandoned
                # query is finished as far as /health is concerned.
                self.heartbeat.finish_query()
                failure = f"query exceeded {self.config.query_deadline_s}s deadline"
                self.metrics.record_engine_failure(entry.name, "hang")
            except ParameterError as exc:
                # Client error: no breaker charge, no rebuild, no retry
                # — and no probe verdict, so free the slot if held.
                breaker.release_probe()
                return ("error", 400, str(exc))
            except _AbandonedQuery:
                # Stale fenced thread; the query was already answered.
                breaker.release_probe()
                return ("error", 503, "query abandoned during recovery")
            except asyncio.CancelledError:
                # Shutdown/interrupt cancellation, not an engine verdict:
                # don't charge the breaker or tear the session down.
                breaker.release_probe()
                raise
            except BaseException as exc:
                failure = f"{type(exc).__name__}: {exc}"
                self.metrics.record_engine_failure(
                    entry.name, type(exc).__name__
                )
            else:
                breaker.record_success()
                if kind == "skyline":
                    entry.note_good_skyline(result)
                return ("ok", result)

            # -- engine failure: heal, then retry / degrade / give up --
            breaker.record_failure()
            rebuilt = self._rebuild_session(entry, breaker)
            if not rebuilt or breaker.state() == "open":
                return self._degraded_outcome(entry, breaker, kind, failure)
            if closing() or attempt >= self.config.max_query_retries:
                return (
                    "error",
                    503,
                    f"engine failure after {attempt + 1} attempt(s): "
                    f"{failure}",
                    {"Retry-After": "1"},
                )
            attempt += 1
            await asyncio.sleep(self._backoff_s(attempt))

    # -- engine-thread body --------------------------------------------
    def _run_query(self, entry, kind, params, fault, cancelled) -> dict:
        """Everything that runs on the engine thread, fenced + faulted."""
        if cancelled.is_set():
            raise _AbandonedQuery(entry.name)
        self.heartbeat.start_query(entry.name, kind)
        try:
            if fault is not None:
                self._perform_serve_fault(fault, entry, cancelled)
            if cancelled.is_set():
                raise _AbandonedQuery(entry.name)
            return execute_query(entry, kind, params)
        finally:
            # A tripped cancel token means the supervisor already
            # abandoned this query (and settled the heartbeat itself);
            # a beat from this stale thread would clobber whatever the
            # replacement executor is now running.
            if not cancelled.is_set():
                self.heartbeat.finish_query()

    def _perform_serve_fault(self, kind, entry, cancelled) -> None:
        """Misbehave as the serve plan dictates (see ServeFaultPlan)."""
        plan = self.fault_plan
        self.metrics.record_injected_fault(entry.name, kind)
        if kind == "engine-exception":
            raise RuntimeError(
                "injected engine exception (serve fault plan)"
            )
        if kind == "session-poison":
            # A genuinely torn-down session (its skyline cache is
            # dropped), then the failure the supervisor must heal from.
            entry.close_session()
            raise RuntimeError("injected poisoned session (serve fault plan)")
        if kind in ("hang", "slow"):
            seconds = (
                plan.hang_seconds if kind == "hang" else plan.slow_seconds
            )
            # Sleep in short slices so an abandoned hang exits promptly
            # instead of pinning a zombie thread for the full duration.
            deadline = time.monotonic() + seconds
            while time.monotonic() < deadline:
                if cancelled.is_set():
                    raise _AbandonedQuery(entry.name)
                time.sleep(min(0.05, max(0.0, deadline - time.monotonic())))
            return
        raise ValueError(f"unknown serve fault kind {kind!r}")

    # -- healing -------------------------------------------------------
    def _rebuild_session(self, entry: GraphEntry, breaker) -> bool:
        """Tear down the entry's session (drops its cache); budget-checked.

        Returns ``False`` when the graph's rebuild budget is exhausted,
        in which case the breaker is pinned open and the caller must
        stop attempting engine work for this graph.
        """
        entry.close_session()  # idempotent; drops the skyline cache
        if entry.rebuilds_total >= self.config.max_session_rebuilds:
            if breaker.pinned_reason is None:
                breaker.pin_open(
                    f"session rebuild budget exhausted "
                    f"({self.config.max_session_rebuilds})"
                )
            return False
        entry.rebuilds_total += 1
        self.metrics.record_rebuild(entry.name)
        return True

    def _abandon_executor(self) -> None:
        """Replace the engine executor after a hang; fence the old thread."""
        old = self._executor
        self._executor = self._new_executor()
        old.shutdown(wait=False)
        self._abandoned.append(old)
        self.metrics.record_abandoned_query()

    def _backoff_s(self, attempt: int) -> float:
        """Seeded-jitter exponential backoff."""
        base = min(
            self.config.backoff_cap_s,
            self.config.backoff_base_s * 2 ** (attempt - 1),
        )
        return base * (0.5 + 0.5 * self._rng.random())

    def _degraded_outcome(self, entry, breaker, kind, failure=None) -> tuple:
        """The open-breaker answer: cached skyline or 503 + Retry-After."""
        if kind == "skyline" and self.config.degraded_cache:
            payload = entry.degraded_skyline_payload()
            if payload is not None:
                self.metrics.record_degraded(entry.name, kind)
                return ("degraded", payload)
        detail = (
            f"graph {entry.name!r} is degraded (circuit breaker "
            f"{breaker.state()}); retry later"
        )
        if failure is not None:
            detail = f"{detail} [last failure: {failure}]"
        self.metrics.record_degraded(entry.name, kind)
        return (
            "error",
            503,
            detail,
            {"Retry-After": str(int(breaker.retry_after_s() + 0.999))},
        )

    # -- lifecycle -----------------------------------------------------
    def health(self, registry) -> dict:
        """The /health supervision block: heartbeat + per-graph breakers."""
        return {
            "engine": self.heartbeat.snapshot(self.config.query_deadline_s),
            "breakers": {
                name: registry.entry(name).breaker.describe()
                for name in registry.names()
                if registry.entry(name).breaker is not None
            },
            "rebuilds": {
                name: registry.entry(name).rebuilds_total
                for name in registry.names()
                if registry.entry(name).rebuilds_total
            },
        }

    def close(self, *, abandon_timeout_s: float = 5.0) -> None:
        """Shut the engine thread(s) down.  Idempotent.

        The live executor drains synchronously (it is idle by the time
        the server calls this).  Abandoned executors may still carry a
        fenced hung thread; each gets a bounded join so a zombie sleep
        cannot wedge shutdown past ``abandon_timeout_s``.
        """
        if self._closed:
            return
        self._closed = True
        self._executor.shutdown(wait=True)
        deadline = time.monotonic() + abandon_timeout_s
        for old in self._abandoned:
            waiter = threading.Thread(
                target=old.shutdown, kwargs={"wait": True}, daemon=True
            )
            waiter.start()
            waiter.join(max(0.0, deadline - time.monotonic()))
        self._abandoned.clear()
