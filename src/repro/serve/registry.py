"""Multi-graph registry: named graphs, each with one skyline cache.

A serving process hosts several immutable graphs at once.  The registry
maps each name to a :class:`GraphEntry` that owns the graph and its
:class:`~repro.core.api.EngineSession` — the lazily computed default
skyline.  The skyline is the answer to ``skyline`` queries and the
input stage of both downstream applications, so one computation feeds
every ``skyline``, ``group`` and ``clique`` request for that graph.

Graph sources are either **registry dataset names**
(:mod:`repro.workloads`) or **edge-list paths**; the CLI spec syntax is
``name`` for the former and ``alias=path`` for the latter.

:func:`execute_query` is the single dispatch point for the three query
kinds.  It goes through exactly the public entry points a direct caller
would use — ``neighborhood_skyline`` (its ``"auto"`` default),
``run_greedy`` via the Base*/NeiSky* drivers, and
``mc_brb``/``*_topk_mcc`` — so a served response is bit-for-bit the
direct API result; the integration suite asserts exactly that.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Optional

from repro.core.api import EngineSession, validate_workers
from repro.core.counters import SkylineCounters
from repro.core.result import SkylineResult
from repro.errors import GraphFormatError, ParameterError, ReproError
from repro.graph.adjacency import Graph
from repro.graph.io import load_graph

__all__ = [
    "GraphEntry",
    "GraphRegistry",
    "QUERY_KINDS",
    "execute_query",
    "load_spec_graph",
    "parse_graph_spec",
]

#: The query kinds the serving layer routes.
QUERY_KINDS = ("skyline", "group", "clique")


def parse_graph_spec(spec: str) -> tuple[str, str, str]:
    """``(name, source_kind, source)`` for one ``--graph`` spec string.

    ``"karate"`` names a registry dataset; ``"web=/tmp/web.edges"``
    binds an alias to an edge-list path.
    """
    name, sep, path = spec.partition("=")
    name = name.strip()
    if not name:
        raise ParameterError(f"empty graph name in spec {spec!r}")
    if sep:
        path = path.strip()
        if not path:
            raise ParameterError(f"empty edge-list path in spec {spec!r}")
        return name, "edge_list", path
    return name, "dataset", name


def load_spec_graph(name: str, kind: str, source: str) -> Graph:
    """Load the graph a parsed spec names, with *diagnosable* failures.

    A corrupt ``.rsky`` snapshot, a truncated/malformed edge list, or a
    missing file must surface as one clear :class:`ParameterError` line
    (the CLI prints ``error: ...`` and exits 2; the HTTP reload path
    returns 400) — never a traceback that kills server startup.
    """
    if kind == "dataset":
        from repro.workloads import load

        return load(source)
    try:
        # Sniffing loader: binary snapshots open via memmap, text
        # parses as an edge list — the spec syntax doesn't change.
        return load_graph(source)
    except GraphFormatError as exc:
        raise ParameterError(
            f"cannot load graph {name!r} from {source!r}: {exc}"
        ) from exc
    except (OSError, ValueError, UnicodeDecodeError) as exc:
        raise ParameterError(
            f"cannot load graph {name!r} from {source!r}: "
            f"{type(exc).__name__}: {exc}"
        ) from exc


@dataclass
class GraphEntry:
    """One hosted graph: data + its skyline-cache session."""

    name: str
    graph: Graph
    source: str
    session: EngineSession = field(init=False, repr=False)
    #: The graph's circuit breaker, attached lazily by the serving
    #: supervisor (:mod:`repro.serve.supervision`); ``None`` outside a
    #: supervised server.
    breaker: Optional[object] = field(default=None, repr=False)
    _last_good_skyline: Optional[dict] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.session = EngineSession(self.graph)

    def skyline_result(
        self, counters: Optional[SkylineCounters] = None
    ) -> SkylineResult:
        """The graph's skyline, computed once and cached by the session.

        The graph is immutable, so every ``skyline``/``group``/``clique``
        request after the first reuses the result — the same reuse a
        direct caller gets by passing ``skyline=`` into the drivers.
        ``counters`` are filled by the first computation only.
        """
        return self.session.refine_sky(counters=counters)

    def note_good_skyline(self, payload: dict) -> None:
        """Remember the last successful skyline response (degraded path).

        The graph is immutable, so a past 200 is exactly what a healthy
        engine would answer now; while this graph's breaker is open the
        supervisor may serve this copy, marked ``degraded: true``.
        """
        self._last_good_skyline = {
            key: value for key, value in payload.items() if key != "_counters"
        }

    def degraded_skyline_payload(self) -> Optional[dict]:
        """A copy of the last-known-good skyline payload, or ``None``."""
        if self._last_good_skyline is None:
            return None
        return dict(self._last_good_skyline)

    def describe(self) -> dict:
        """The /graphs row: name, source, sizes, cache state."""
        return {
            "name": self.name,
            "source": self.source,
            "vertices": self.graph.num_vertices,
            "edges": self.graph.num_edges,
            "skyline_cached": self.session.cached,
        }

    def close_session(self) -> None:
        """Drop the session's skyline cache (idempotent).  The next
        query recomputes it; the degraded path keeps its own copy."""
        self.session.close()


class GraphRegistry:
    """Named graphs behind the serving layer; owns their sessions.

    ``workers`` is accepted for compatibility and must be ``1``: every
    query runs in-process.  ``close()`` is idempotent and drops every
    entry's skyline cache exactly once.
    """

    def __init__(self, *, workers: int = 1):
        validate_workers(workers)
        self._entries: dict[str, GraphEntry] = {}
        self._lock = threading.Lock()
        self._closed = False

    def __len__(self) -> int:
        return len(self._entries)

    def names(self) -> tuple[str, ...]:
        """Registered graph names, sorted."""
        return tuple(sorted(self._entries))

    def register(
        self,
        name: str,
        graph: Graph,
        *,
        source: str = "inline",
    ) -> GraphEntry:
        """Host ``graph`` under ``name`` (re-registration rejected)."""
        if self._closed:
            raise ReproError("this GraphRegistry is closed")
        if name in self._entries:
            raise ParameterError(
                f"graph {name!r} is already registered; unregister or "
                "pick another alias"
            )
        entry = GraphEntry(name=name, graph=graph, source=source)
        self._entries[name] = entry
        return entry

    def register_spec(self, spec: str) -> GraphEntry:
        """Register from a ``--graph`` spec string (see
        :func:`parse_graph_spec`)."""
        name, kind, source = parse_graph_spec(spec)
        graph = load_spec_graph(name, kind, source)
        return self.register(name, graph, source=f"{kind}:{source}")

    def entry(self, name: str) -> GraphEntry:
        """The entry for ``name``; ParameterError when unregistered."""
        try:
            return self._entries[name]
        except KeyError:
            raise ParameterError(
                f"unknown graph {name!r}; hosted graphs: "
                f"{list(self.names())}"
            ) from None

    def close(self) -> None:
        """Close every entry.  Idempotent; safe to call twice."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            entries = list(self._entries.values())
        for entry in entries:
            entry.close_session()


# ---------------------------------------------------------------------
# Query execution (runs on the server's single dispatch thread)
# ---------------------------------------------------------------------
def _int_param(params: dict, key: str, default: int, minimum: int) -> int:
    value = params.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParameterError(f"{key} must be an integer, got {value!r}")
    if value < minimum:
        raise ParameterError(f"{key} must be >= {minimum}, got {value}")
    return value


def _bool_param(params: dict, key: str, default: bool) -> bool:
    value = params.get(key, default)
    if not isinstance(value, bool):
        raise ParameterError(f"{key} must be true or false, got {value!r}")
    return value


def execute_query(entry: GraphEntry, kind: str, params: dict) -> dict:
    """Run one query on ``entry``; a JSON-able result.

    The responses carry the exact values a direct caller sees:

    * ``skyline`` — ``skyline``/``dominator``/``candidate_size`` of the
      entry's cached :func:`~repro.core.api.neighborhood_skyline`
      result;
    * ``group`` — ``group``/``gains``/``evaluations``/``pool_size`` of
      the Base*/NeiSky* drivers' :class:`GreedyResult` (``gains`` in
      the objective's own units; eager and lazy strategies return
      identical groups and gains);
    * ``clique`` — the ``mc_brb``/``neisky_mc``/``*_topk_mcc`` clique
      lists, skyline-pruned variants reusing the cached skyline.
    """
    graph = entry.graph
    if kind == "skyline":
        counters = SkylineCounters()
        result = entry.skyline_result(counters)
        return {
            "algorithm": result.algorithm,
            "skyline": list(result.skyline),
            "dominator": list(result.dominator),
            "candidate_size": result.candidate_size,
            "size": result.size,
            "_counters": counters,
        }
    if kind == "group":
        from repro.centrality import base_gc, base_gh, neisky_gc, neisky_gh

        k = _int_param(params, "k", 8, 0)
        measure = params.get("measure", "closeness")
        if measure not in ("closeness", "harmonic"):
            raise ParameterError(
                f"unknown group measure {measure!r}; choose 'closeness' "
                "or 'harmonic'"
            )
        use_skyline = _bool_param(params, "use_skyline", True)
        counters = SkylineCounters()
        if use_skyline:
            run = neisky_gc if measure == "closeness" else neisky_gh
            skyline = entry.skyline_result(counters).skyline
            result = run(graph, k, skyline=skyline)
        else:
            run = base_gc if measure == "closeness" else base_gh
            result = run(graph, k)
        return {
            "measure": measure,
            "use_skyline": use_skyline,
            "k": k,
            "group": list(result.group),
            "gains": list(result.gains),
            "evaluations": result.evaluations,
            "pool_size": result.pool_size,
            "objective": result.objective,
            "_counters": counters,
        }
    if kind == "clique":
        from repro.clique import base_topk_mcc, mc_brb, neisky_mc, neisky_topk_mcc

        top_k = _int_param(params, "top_k", 1, 1)
        use_skyline = _bool_param(params, "use_skyline", True)
        counters = SkylineCounters()
        if not use_skyline:
            cliques = (
                [mc_brb(graph)] if top_k == 1 else base_topk_mcc(graph, top_k)
            )
        else:
            sky = entry.skyline_result(counters)
            if top_k == 1:
                cliques = [neisky_mc(graph, skyline=sky.skyline)]
            else:
                cliques = neisky_topk_mcc(graph, top_k, skyline_result=sky)
        return {
            "top_k": top_k,
            "use_skyline": use_skyline,
            "cliques": [list(c) for c in cliques],
            "sizes": [len(c) for c in cliques],
            "_counters": counters,
        }
    raise ParameterError(
        f"unknown query kind {kind!r}; choose from {list(QUERY_KINDS)}"
    )
