"""Skyline-as-a-service: asyncio HTTP serving layer.

The repo's first multi-request, multi-graph subsystem: a registry of
named graphs each fronted by one skyline cache
(:class:`~repro.core.api.EngineSession`), a bounded priority
queue with per-request deadlines and backpressure, and a handcrafted
asyncio HTTP front (no new dependencies).  See ``docs/serving.md`` for
the architecture and semantics, and ``repro serve --help`` for the CLI.
"""

from repro.serve.metrics import LatencyHistogram, ServerMetrics
from repro.serve.protocol import HttpError, HttpRequest
from repro.serve.queue import (
    DEFAULT_PRIORITY,
    BoundedRequestQueue,
    QueuedRequest,
    QueueFullError,
)
from repro.serve.registry import (
    QUERY_KINDS,
    GraphEntry,
    GraphRegistry,
    execute_query,
    load_spec_graph,
    parse_graph_spec,
)
from repro.serve.server import (
    ServeConfig,
    ServerThread,
    SkylineServer,
    run_server,
)
from repro.serve.supervision import (
    BREAKER_STATES,
    CircuitBreaker,
    EngineSupervisor,
    Heartbeat,
    SupervisionConfig,
)

__all__ = [
    "BREAKER_STATES",
    "BoundedRequestQueue",
    "CircuitBreaker",
    "DEFAULT_PRIORITY",
    "EngineSupervisor",
    "GraphEntry",
    "GraphRegistry",
    "Heartbeat",
    "HttpError",
    "HttpRequest",
    "LatencyHistogram",
    "QUERY_KINDS",
    "QueueFullError",
    "QueuedRequest",
    "ServeConfig",
    "ServerMetrics",
    "ServerThread",
    "SkylineServer",
    "SupervisionConfig",
    "execute_query",
    "load_spec_graph",
    "parse_graph_spec",
    "run_server",
]
