"""Skyline-as-a-service: the asyncio HTTP server.

Architecture (one process, one event loop, one engine thread)::

    clients ──► asyncio connections ──► BoundedRequestQueue ──► worker
                   (protocol.py)          (admission, 429)        │
                                                                  ▼
                                                    engine thread (1)
                                                    execute_query on the
                                                    graph's cached
                                                    skyline

* The **event loop** parses requests, enqueues them, and writes
  responses.  It never runs graph work.
* The **queue** is the only place requests wait: bounded (full ⇒ 429),
  priority-ordered, deadline-aware (expired ⇒ 504, never dispatched).
* The **worker coroutine** pops one request at a time, in strict
  priority order across graphs, and hands it to the supervised engine
  thread (:class:`~repro.serve.supervision.EngineSupervisor`): engine
  sessions are single-caller objects, so all graph work serializes on
  that thread while the loop stays responsive.  Per-request deadlines bound
  the whole *queue wait* (a request leaves the queue only when it is
  dispatched, so it expires with 504 even while another query holds
  the engine); once dispatched, a request runs under the
  supervisor's cooperative per-query deadline: the engine stops at its
  next checkpoint past it and the request is answered 503.  An engine
  failure never kills the server: the supervisor rebuilds the graph's
  session (dropping its skyline cache), retries at once, and — once a
  graph's circuit breaker opens — degrades that one graph (cached
  skyline marked ``degraded: true``, 503 + ``Retry-After`` otherwise)
  while every other graph serves at full fidelity.

Results travel through futures as plain ``("ok", payload)`` /
``("degraded", payload)`` / ``("error", status, detail[, headers])``
tuples — no exceptions are parked in futures, so abandoned requests
never log retrieval warnings.

Endpoints: ``POST /query`` (JSON: ``graph``, ``kind``, per-kind params,
``priority``, ``timeout_s``), ``GET /health``, ``GET /metrics``,
``GET /graphs``, ``POST /graphs`` (live registration:
``{"spec": "alias=path"}``).
"""

from __future__ import annotations

import asyncio
import math
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ParameterError, ReproError
from repro.harness.faults import ServeFaultPlan
from repro.serve.metrics import ServerMetrics
from repro.serve.protocol import (
    HttpError,
    HttpRequest,
    json_response,
    read_request,
)
from repro.serve.queue import (
    DEFAULT_PRIORITY,
    BoundedRequestQueue,
    QueuedRequest,
    QueueFullError,
)
from repro.serve.registry import (
    QUERY_KINDS,
    GraphRegistry,
    load_spec_graph,
    parse_graph_spec,
)
from repro.serve.supervision import EngineSupervisor, SupervisionConfig

__all__ = ["ServeConfig", "SkylineServer", "ServerThread", "run_server"]

#: Seconds a connection may take to deliver its whole request (line,
#: headers and body) before it is answered 408 and closed, so a client
#: that stalls mid-request cannot hold a connection open.
READ_DEADLINE_S = 10.0


@dataclass(frozen=True)
class ServeConfig:
    """Tunables of one serving process."""

    host: str = "127.0.0.1"
    port: int = 8321  # 0 = ephemeral (the bound port is reported)
    queue_capacity: int = 64
    #: Default per-request deadline (queue wait), seconds; ``None``
    #: waits forever.  Clients override per request via ``timeout_s``.
    default_timeout_s: Optional[float] = 30.0
    #: Serve at most this many ``/query`` requests, then shut down
    #: (``None`` = forever).  Smoke tests and the CLI's --max-requests.
    max_requests: Optional[int] = None
    #: Self-healing policy: query deadline, retry count,
    #: circuit-breaker thresholds, degraded cache.
    supervision: SupervisionConfig = field(default_factory=SupervisionConfig)

    def validate(self) -> None:
        """Reject out-of-range knobs with ParameterError (fail fast)."""
        self.supervision.validate()
        if not 0 <= self.port <= 65535:
            raise ParameterError(f"port must be 0-65535, got {self.port}")
        if self.queue_capacity < 1:
            raise ParameterError(
                f"queue_capacity must be >= 1, got {self.queue_capacity}"
            )
        timeout = self.default_timeout_s
        # ``not > 0`` also rejects NaN, a deadline that never expires.
        if timeout is not None and not timeout > 0:
            raise ParameterError(
                "default_timeout_s must be > 0 or None, got "
                f"{self.default_timeout_s}"
            )
        if self.max_requests is not None and self.max_requests < 0:
            raise ParameterError(
                f"max_requests must be >= 0 or None, got {self.max_requests}"
            )


class SkylineServer:
    """One serving process: registry + queue + worker + HTTP front."""

    def __init__(
        self,
        registry: GraphRegistry,
        config: ServeConfig,
        *,
        fault_plan: Optional[ServeFaultPlan] = None,
    ):
        config.validate()
        self.registry = registry
        self.config = config
        self.metrics = ServerMetrics()
        self.supervision = EngineSupervisor(
            config.supervision, self.metrics, fault_plan=fault_plan
        )
        self.queue = BoundedRequestQueue(
            config.queue_capacity,
            on_expire=self._on_expire,
            clock=time.monotonic,
        )
        self.port: Optional[int] = None  # bound port, set by start()
        self._server: Optional[asyncio.AbstractServer] = None
        self._worker_task: Optional[asyncio.Task] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._wake = asyncio.Event()
        #: Test hook: clearing this gate pauses dispatch (requests pile
        #: up in the queue) without touching admission — the
        #: deterministic way to drive the 429 path end-to-end.
        self.dispatch_gate = asyncio.Event()
        self.dispatch_gate.set()
        self._closing = False  # stop admitting/dispatching new work
        self._close_started = False  # a close() call is in progress
        self._closed = asyncio.Event()
        self._limit_reached = asyncio.Event()
        self._served_queries = 0

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> None:
        """Bind the socket and start the worker (the supervisor already
        owns the engine thread)."""
        self._loop = asyncio.get_running_loop()
        host, port = self.config.host, self.config.port
        try:
            self._server = await asyncio.start_server(
                self._handle_connection, host, port
            )
        except OSError as exc:  # port taken, host unresolvable, ...
            raise ParameterError(
                f"cannot listen on {host}:{port}: {exc}"
            ) from exc
        self.port = self._server.sockets[0].getsockname()[1]
        if self.config.max_requests == 0:
            # A zero budget is already spent: trip the limit before the
            # worker dispatches anything (lifecycle smoke tests).
            self._closing = True
            self._limit_reached.set()
        self._worker_task = asyncio.create_task(
            self._worker(), name="repro-serve-worker"
        )

    async def close(self) -> None:
        """Stop accepting, fail queued work with 503, tear sessions down.

        Idempotent.  Ordering matters: the engine thread drains before
        the registry closes, so no session is closed mid-call.
        """
        if self._close_started:
            await self._closed.wait()
            return
        self._close_started = True
        self._closing = True
        self._wake.set()
        self.dispatch_gate.set()  # a paused server must still shut down
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._worker_task is not None:
            await self._worker_task
        for request in self.queue.drain():
            self._finish(request, ("error", 503, "server shutting down"))
        # Drain the supervised engine thread (idle by now), then tear
        # every session down exactly once.
        self.supervision.close()
        self.registry.close()
        self._closed.set()

    async def wait_closed(self) -> None:
        """Block until a close() from any path has fully completed."""
        await self._closed.wait()

    # -- queue plumbing ------------------------------------------------
    def _finish(self, request: QueuedRequest, outcome: tuple) -> None:
        future = request.payload["future"]
        if not future.done():
            future.set_result(outcome)

    def _on_expire(self, request: QueuedRequest) -> None:
        self.metrics.record_request(request.kind, 504)
        self._finish(
            request,
            (
                "error",
                504,
                f"deadline expired after {request.payload['timeout_s']}s "
                "in queue",
            ),
        )

    # -- worker --------------------------------------------------------
    async def _worker(self) -> None:
        while True:
            await self.dispatch_gate.wait()
            request = self.queue.pop()
            if request is None:
                if self._closing:
                    return
                self._wake.clear()
                # Re-check after clearing: an enqueue may have raced us.
                if len(self.queue) or self._closing:
                    continue
                await self._wake.wait()
                continue
            started = time.monotonic()
            self.metrics.queue_wait.observe(started - request.enqueued_at)
            if request.payload["future"].done():
                continue  # client connection died and cancelled
            # All failure classification (client error vs engine
            # failure vs degraded) lives in the supervisor; this loop
            # only routes outcome tuples.  One poisoned query must
            # never take the process down.
            outcome = await self.supervision.execute(
                self.registry.entry(request.graph),
                request.kind,
                request.payload["params"],
                closing=lambda: self._closing,
            )
            if outcome[0] == "ok":
                self.metrics.service_time.observe(time.monotonic() - started)
                self.metrics.absorb_engine_counters(
                    outcome[1].pop("_counters", None)
                )
                self.metrics.record_request(request.kind, 200)
            elif outcome[0] == "degraded":
                # A 200 with the degraded marker: stale-but-correct
                # cached skyline while the breaker is open.
                self.metrics.record_request(request.kind, 200)
            else:
                self.metrics.record_request(request.kind, outcome[1])
            self._finish(request, outcome)
            self._served_queries += 1
            limit = self.config.max_requests
            if limit is not None and self._served_queries >= limit:
                self._closing = True
                self._limit_reached.set()

    # -- HTTP front ----------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        try:
            try:
                request = await asyncio.wait_for(
                    read_request(reader), READ_DEADLINE_S
                )
            except HttpError as exc:
                writer.write(
                    json_response(exc.status, {"error": exc.detail})
                )
                return
            except asyncio.TimeoutError:
                detail = f"request not received within {READ_DEADLINE_S}s"
                writer.write(json_response(408, {"error": detail}))
                return
            if request is None:
                return
            writer.write(await self._route(request))
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            try:
                await writer.drain()
            except (ConnectionError, asyncio.CancelledError):
                pass
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _route(self, request: HttpRequest) -> bytes:
        path, method = request.path, request.method
        if path == "/health":
            if method != "GET":
                return json_response(405, {"error": "use GET /health"})
            return json_response(200, self.health())
        if path == "/metrics":
            if method != "GET":
                return json_response(405, {"error": "use GET /metrics"})
            return json_response(
                200, self.metrics.as_dict(queue_counters=self.queue.counters())
            )
        if path == "/graphs":
            if method == "GET":
                rows = [
                    self._describe_graph(self.registry.entry(name))
                    for name in self.registry.names()
                ]
                return json_response(200, {"graphs": rows})
            if method == "POST":
                return await self._handle_register(request)
            return json_response(
                405, {"error": "use GET /graphs or POST /graphs"}
            )
        if path == "/query":
            if method != "POST":
                return json_response(405, {"error": "use POST /query"})
            return await self._handle_query(request)
        return json_response(
            404,
            {
                "error": f"no route {path!r}",
                "routes": ["/health", "/metrics", "/graphs", "/query"],
            },
        )

    def health(self) -> dict:
        """The /health body: status, graphs, queue, engine + breakers."""
        doc = {
            "status": "closing" if self._closing else "ok",
            "graphs": list(self.registry.names()),
            "queue": self.queue.counters(),
            "queue_by_graph": self.queue.pending_by_graph(),
            "served_queries": self._served_queries,
        }
        doc.update(self.supervision.health(self.registry))
        return doc

    async def _handle_register(self, request: HttpRequest) -> bytes:
        """``POST /graphs``: register one graph spec on the live server.

        Body: ``{"spec": "name"}`` (dataset) or ``{"spec":
        "alias=path"}`` (edge list / ``.rsky`` snapshot).  A corrupt or
        unreadable source is a 400 with one clear line — registration
        failures must never wedge or kill a serving process.
        """
        try:
            payload = request.json_body()
        except HttpError as exc:
            return json_response(exc.status, {"error": exc.detail})
        if self._closing:
            return json_response(
                503,
                {"error": "server shutting down"},
                extra_headers={"Retry-After": "1"},
            )
        spec = payload.get("spec")
        if not isinstance(spec, str) or not spec:
            return json_response(
                400, {"error": "'spec' must be a non-empty string"}
            )
        name = None
        try:
            name, kind, source = parse_graph_spec(spec)
            if name in self.registry.names():
                return json_response(
                    409,
                    {"error": f"graph {name!r} is already registered"},
                )
            # Parsing/mmap of a large graph off the event loop; the
            # engine thread stays free for queries meanwhile.
            graph = await self._loop.run_in_executor(
                None, load_spec_graph, name, kind, source
            )
            entry = self.registry.register(
                name, graph, source=f"{kind}:{source}"
            )
        except ParameterError as exc:
            status = 409 if name in self.registry.names() else 400
            return json_response(status, {"error": str(exc)})
        except ReproError as exc:
            return json_response(400, {"error": str(exc)})
        return json_response(
            200, {"registered": self._describe_graph(entry)}
        )

    def _describe_graph(self, entry) -> dict:
        """One /graphs row: the entry's own row plus its rebuild count."""
        row = entry.describe()
        row["rebuilds"] = self.metrics.rebuilds[entry.name]
        return row

    async def _handle_query(self, request: HttpRequest) -> bytes:
        try:
            spec = self._parse_query(request)
        except HttpError as exc:
            return json_response(exc.status, {"error": exc.detail})
        if self._closing:
            return json_response(503, {"error": "server shutting down"})

        future: asyncio.Future = self._loop.create_future()
        timeout_s = spec["timeout_s"]
        deadline = (
            None if timeout_s is None else time.monotonic() + timeout_s
        )
        queued = QueuedRequest(
            graph=spec["graph"],
            kind=spec["kind"],
            payload={
                "params": spec["params"],
                "future": future,
                "timeout_s": timeout_s,
            },
            priority=spec["priority"],
            deadline=deadline,
        )
        try:
            self.queue.push(queued)
        except QueueFullError as exc:
            self.metrics.record_request(spec["kind"], 429)
            return json_response(
                429,
                {"error": str(exc), "queue": self.queue.counters()},
                extra_headers={"Retry-After": "1"},
            )
        self._wake.set()
        if timeout_s is not None:
            # The queue purges on push/pop; this timer guarantees the
            # 504 fires at the deadline even if the worker is busy on a
            # long engine call and never pops.
            self._loop.call_later(timeout_s, self.queue.purge_expired)
        outcome = await future
        if outcome[0] in ("ok", "degraded"):
            body = {
                "graph": spec["graph"],
                "kind": spec["kind"],
                "result": outcome[1],
            }
            if outcome[0] == "degraded":
                # Stale-but-correct cached answer: the marker is the
                # contract — a degraded 200 is never silently normal.
                body["degraded"] = True
            return json_response(200, body)
        _, status, detail, *rest = outcome
        headers = dict(rest[0]) if rest else {}
        if status == 503:
            headers.setdefault("Retry-After", "1")
        return json_response(
            status, {"error": detail}, extra_headers=headers or None
        )

    def _parse_query(self, request: HttpRequest) -> dict:
        payload = request.json_body()
        graph = payload.get("graph")
        if not isinstance(graph, str) or not graph:
            raise HttpError(400, "'graph' must be a non-empty string")
        if graph not in self.registry.names():
            raise HttpError(
                404,
                f"unknown graph {graph!r}; hosted graphs: "
                f"{list(self.registry.names())}",
            )
        kind = payload.get("kind")
        if kind not in QUERY_KINDS:
            raise HttpError(
                400,
                f"'kind' must be one of {list(QUERY_KINDS)}, got {kind!r}",
            )
        priority = payload.get("priority", DEFAULT_PRIORITY)
        if isinstance(priority, bool) or not isinstance(priority, int):
            raise HttpError(400, f"'priority' must be an integer, got {priority!r}")
        timeout_s = payload.get("timeout_s", self.config.default_timeout_s)
        # The configured default is ServeConfig's to check (inf there
        # waits forever); a client's value must be finite.
        if "timeout_s" in payload and timeout_s is not None:
            if isinstance(timeout_s, bool) or not isinstance(
                timeout_s, (int, float)
            ):
                raise HttpError(
                    400, f"'timeout_s' must be a number, got {timeout_s!r}"
                )
            try:
                timeout_s = float(timeout_s)
            except OverflowError:  # an integer past the float range
                timeout_s = math.inf
            if not (0 < timeout_s < math.inf):  # NaN fails both tests
                raise HttpError(
                    400,
                    f"'timeout_s' must be a finite number > 0, got "
                    f"{timeout_s}",
                )
        params = {
            key: value
            for key, value in payload.items()
            if key not in ("graph", "kind", "priority", "timeout_s")
        }
        return {
            "graph": graph,
            "kind": kind,
            "priority": priority,
            "timeout_s": timeout_s,
            "params": params,
        }


# ---------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------
async def _serve(
    registry: GraphRegistry,
    config: ServeConfig,
    *,
    announce=None,
    stop_event: Optional[asyncio.Event] = None,
    fault_plan: Optional[ServeFaultPlan] = None,
) -> SkylineServer:
    server = SkylineServer(registry, config, fault_plan=fault_plan)
    await server.start()
    if announce is not None:
        announce(server)
    loop = asyncio.get_running_loop()
    sigterm = asyncio.Event()
    try:
        # Graceful SIGTERM: stop admitting, drain queued work with 503,
        # tear sessions down, exit 0.  Signal handlers only
        # install on a main-thread loop; ServerThread harnesses use
        # their stop_event instead.
        loop.add_signal_handler(signal.SIGTERM, sigterm.set)
        sigterm_installed = True
    except (NotImplementedError, RuntimeError, ValueError):
        sigterm_installed = False
    try:
        waiters = [
            asyncio.create_task(server._limit_reached.wait()),
            asyncio.create_task(sigterm.wait()),
        ]
        if stop_event is not None:
            waiters.append(asyncio.create_task(stop_event.wait()))
        # With neither a stop source nor a request limit this waits
        # forever; Ctrl-C unwinds through the finally.
        await asyncio.wait(waiters, return_when=asyncio.FIRST_COMPLETED)
        for waiter in waiters:
            waiter.cancel()
    finally:
        if sigterm_installed:
            loop.remove_signal_handler(signal.SIGTERM)
        await server.close()
    return server


def run_server(
    registry: GraphRegistry,
    config: ServeConfig,
    *,
    announce=None,
    fault_plan: Optional[ServeFaultPlan] = None,
) -> int:
    """Blocking entry point (the CLI's ``repro serve``).

    Serves until Ctrl-C, SIGTERM or ``config.max_requests`` queries;
    returns the conventional exit code (0 normal — including SIGTERM,
    which drains gracefully — and 130 on interrupt).  Sessions are
    torn down on every path.  ``fault_plan`` injects
    serve-level chaos (:class:`~repro.harness.faults.ServeFaultPlan`)
    for harness runs.
    """
    try:
        asyncio.run(
            _serve(registry, config, announce=announce, fault_plan=fault_plan)
        )
    except KeyboardInterrupt:
        registry.close()  # idempotent; asyncio.run already unwound close()
        return 130
    return 0


class ServerThread:
    """A live server on a background thread — the test/benchmark harness.

    Runs its own event loop so synchronous clients (``http.client``,
    load generators, pytest) can talk to a real socket::

        with ServerThread(registry, config) as handle:
            resp = handle.request("POST", "/query", {...})

    ``stop()`` requests a clean in-loop shutdown and joins the thread.
    """

    def __init__(
        self,
        registry: GraphRegistry,
        config: ServeConfig,
        *,
        fault_plan: Optional[ServeFaultPlan] = None,
    ):
        self.registry = registry
        self.config = config
        self.fault_plan = fault_plan
        self.server: Optional[SkylineServer] = None
        self._ready = threading.Event()
        self._stop_event: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._startup_error: Optional[BaseException] = None
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )

    @property
    def port(self) -> int:
        return self.server.port

    def _run(self) -> None:
        async def main():
            self._loop = asyncio.get_running_loop()
            self._stop_event = asyncio.Event()

            def announce(server):
                self.server = server
                self._ready.set()

            await _serve(
                self.registry,
                self.config,
                announce=announce,
                stop_event=self._stop_event,
                fault_plan=self.fault_plan,
            )

        try:
            asyncio.run(main())
        except BaseException as exc:  # surface startup/serve failures
            self._startup_error = exc
            self._ready.set()

    def start(self) -> "ServerThread":
        """Launch the thread and wait until the server is listening."""
        self._thread.start()
        self._ready.wait(timeout=30)
        if self._startup_error is not None:
            raise RuntimeError(
                "server thread failed to start"
            ) from self._startup_error
        if self.server is None:
            raise RuntimeError("server thread did not become ready")
        return self

    def call_in_loop(self, fn, *args) -> None:
        """Run ``fn(*args)`` on the server's event loop (test hooks)."""
        self._loop.call_soon_threadsafe(fn, *args)

    def stop(self) -> None:
        """Request in-loop shutdown and join the thread."""
        if self._loop is not None and self._stop_event is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop_event.set)
            except RuntimeError:
                pass  # loop already closed
        self._thread.join(timeout=30)
        if self._thread.is_alive():
            raise RuntimeError("server thread did not shut down")

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # -- synchronous client (stdlib http.client) -----------------------
    def request(
        self,
        method: str,
        path: str,
        payload: Optional[dict] = None,
        *,
        timeout: float = 60.0,
    ) -> tuple[int, dict]:
        """One HTTP round-trip; returns ``(status, decoded_json)``."""
        import http.client
        import json as _json

        conn = http.client.HTTPConnection(
            self.config.host, self.port, timeout=timeout
        )
        try:
            body = None
            headers = {}
            if payload is not None:
                body = _json.dumps(payload).encode("utf-8")
                headers["Content-Type"] = "application/json"
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            data = response.read()
            return response.status, _json.loads(data.decode("utf-8"))
        finally:
            conn.close()
