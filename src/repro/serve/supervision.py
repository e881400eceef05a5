"""Self-healing supervision for the serving layer.

A long-lived server must survive its engine: an engine-thread
exception, a poisoned :class:`~repro.core.api.EngineSession`, or a
query that runs past its deadline must degrade one graph's answers,
never kill the process.  Three pieces:

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
    A persistent fault therefore costs one probe per cooldown.

:class:`EngineSupervisor`
    Owns the server's single engine thread (a one-worker executor) and
    wraps every dispatch: a cooperative per-query deadline
    (:mod:`repro.core.deadline`) around the engine call, a heartbeat
    the ``/health`` endpoint reads, and — on an engine exception — a
    teardown of the failed graph's session (``EngineSession.close``
    drops its cached skyline) followed by an immediate retry.  A query
    past its deadline stops itself at the engine's next checkpoint
    with :class:`~repro.core.deadline.DeadlineExceeded` and is answered
    503 + ``Retry-After``: no retry (a rerun against the same deadline
    would hold the one engine thread, and every graph behind it, even
    longer) and no rebuild (the cached skyline is not poisoned).

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
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.deadline import DeadlineExceeded
from repro.core.deadline import check as check_deadline
from repro.core.deadline import deadline
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
        Per-query engine deadline.  The engine stops at its next
        checkpoint past it (a greedy round, a clique root, a refine
        block) and the query is answered 503; ``None`` disables it.
    ``max_query_retries``
        Immediate re-attempts, each on a rebuilt session, after an
        engine exception before the query is answered 503.
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
    breaker_threshold: int = 3
    breaker_cooldown_s: float = 1.0
    degraded_cache: bool = True

    def validate(self) -> None:
        """Reject out-of-range knobs with ParameterError (fail fast)."""
        deadline = self.query_deadline_s
        # ``not > 0`` and ``not >= 0`` also reject NaN, which never
        # expires and never cools down.
        if deadline is not None and not deadline > 0:
            raise ParameterError(
                "query_deadline_s must be > 0 or None, got "
                f"{self.query_deadline_s}"
            )
        if self.max_query_retries < 0:
            raise ParameterError(
                f"max_query_retries must be >= 0, got {self.max_query_retries}"
            )
        if self.breaker_threshold < 1:
            raise ParameterError(
                f"breaker_threshold must be >= 1, got {self.breaker_threshold}"
            )
        if not self.breaker_cooldown_s >= 0:
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
        parameter error, task cancellation at shutdown.  The breaker
        stays ``half_open`` and the next :meth:`admit` becomes the
        probe; without this the slot would leak and pin the breaker
        half-open (every query degraded) forever.  No-op unless a probe
        is actually in flight.
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

    # -- introspection -------------------------------------------------
    def retry_after_s(self) -> float:
        """Seconds until the next probe is possible (>= 1 for headers)."""
        remaining = self.cooldown_s - (self._clock() - self._opened_at)
        return max(1.0, remaining)

    def describe(self) -> dict:
        """The /health row for this breaker (state + counters)."""
        return {
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


class Heartbeat:
    """The engine thread's pulse, read lock-free by ``/health``.

    The engine thread beats at query start and finish; the stall
    verdict (``stalled``) is computed at read time against the
    per-query deadline, so a query past its deadline but not yet at
    its next checkpoint (or wedged in code that has none) is visible
    from the outside.
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
        self.heartbeat = Heartbeat(clock)
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-engine"
        )
        self._dispatches: Counter = Counter()  # graph -> engine dispatches

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
            try:
                result = await loop.run_in_executor(
                    self._executor,
                    self._run_query,
                    entry,
                    kind,
                    params,
                    fault,
                )
            except ParameterError as exc:
                # Client error: no breaker charge, no rebuild, no retry
                # — and no probe verdict, so free the slot if held.
                breaker.release_probe()
                return ("error", 400, str(exc))
            except asyncio.CancelledError:
                # Shutdown/interrupt cancellation, not an engine verdict:
                # don't charge the breaker or tear the session down.
                breaker.release_probe()
                raise
            except DeadlineExceeded:
                # The engine stopped itself at the deadline.  Its
                # session is intact, so nothing is rebuilt, and a rerun
                # against the same deadline would only hold the engine
                # thread longer, so nothing is retried either.
                retry = False
                failure = (
                    f"query exceeded its {self.config.query_deadline_s}s "
                    "deadline"
                )
                self.metrics.record_engine_failure(
                    entry.name, DeadlineExceeded.__name__
                )
            except BaseException as exc:
                # An engine exception may have left the session's cache
                # inconsistent: drop it, and retry on the rebuilt one.
                retry = True
                failure = f"{type(exc).__name__}: {exc}"
                self.metrics.record_engine_failure(
                    entry.name, type(exc).__name__
                )
                entry.close_session()
                self.metrics.record_rebuild(entry.name)
            else:
                breaker.record_success()
                if kind == "skyline":
                    entry.note_good_skyline(result)
                return ("ok", result)

            breaker.record_failure()
            if breaker.state() == "open":
                return self._degraded_outcome(entry, breaker, kind, failure)
            if (
                not retry
                or closing()
                or attempt >= self.config.max_query_retries
            ):
                return (
                    "error",
                    503,
                    f"engine failure after {attempt + 1} attempt(s): "
                    f"{failure}",
                    {"Retry-After": "1"},
                )
            attempt += 1

    # -- engine-thread body --------------------------------------------
    def _run_query(self, entry, kind, params, fault) -> dict:
        """Everything that runs on the engine thread, under the deadline."""
        self.heartbeat.start_query(entry.name, kind)
        try:
            with deadline(self.config.query_deadline_s):
                if fault is not None:
                    self._perform_serve_fault(fault, entry)
                return execute_query(entry, kind, params)
        finally:
            self.heartbeat.finish_query()

    def _perform_serve_fault(self, kind, entry) -> None:
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
            # Sleep in slices with a checkpoint each, so the deadline
            # stops a hang the way it stops real engine work.
            until = time.monotonic() + seconds
            while (left := until - time.monotonic()) > 0:
                check_deadline()
                time.sleep(min(0.05, left))
            return
        raise ValueError(f"unknown serve fault kind {kind!r}")

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
            "rebuilds": dict(sorted(self.metrics.rebuilds.items())),
        }

    def close(self) -> None:
        """Join the engine thread (idle by the time the server calls
        this; a running query stops at its deadline).  Idempotent."""
        self._executor.shutdown(wait=True)
