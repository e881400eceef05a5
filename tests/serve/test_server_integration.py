"""End-to-end serving tests: live server, real sockets, real sessions.

A :class:`~repro.serve.server.ServerThread` fixture runs the full
asyncio server on an ephemeral port with two registered graphs.  The
contracts under test:

* served ``skyline`` / ``group`` / ``clique`` responses are
  **bit-for-bit identical** to the corresponding direct API calls
  (``neighborhood_skyline``'s default; the Base*/NeiSky* greedy
  drivers; the clique stack);
* concurrent clients across both graphs all succeed and agree with the
  direct results;
* ``/metrics`` and ``/health`` expose the documented schema;
* error paths map to the documented statuses (404 unknown graph /
  route, 400 bad input, 405 wrong method, 408 stalled request, 429
  full queue, 504 expired deadline, also while another query holds
  the engine);
* shutdown is clean: no stray server thread.
"""

from __future__ import annotations

import http.client
import json
import socket
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.centrality import neisky_gc, neisky_gh
from repro.clique import neisky_mc, neisky_topk_mcc
from repro.core import neighborhood_skyline
from repro.core.filter_refine import filter_refine_sky
from repro.harness.faults import ServeFaultPlan
from repro.serve import GraphRegistry, ServeConfig, ServerThread
from repro.serve import server as server_module
from repro.workloads import load

GRAPHS = ("karate", "bombing_proxy")


@pytest.fixture(scope="module")
def server():
    registry = GraphRegistry(workers=1)
    for name in GRAPHS:
        registry.register_spec(name)
    config = ServeConfig(port=0, queue_capacity=32, default_timeout_s=60.0)
    with ServerThread(registry, config) as handle:
        yield handle


def _query(server, payload, expect=200):
    status, doc = server.request("POST", "/query", payload)
    assert status == expect, doc
    return doc


# ---------------------------------------------------------------------
# Bit-for-bit equality with the direct API
# ---------------------------------------------------------------------
@pytest.mark.parametrize("name", GRAPHS)
def test_served_skyline_equals_direct_calls(server, name):
    graph = load(name)
    doc = _query(server, {"graph": name, "kind": "skyline"})
    result = doc["result"]
    sequential = filter_refine_sky(graph)
    naive = neighborhood_skyline(graph, algorithm="naive")
    assert tuple(result["skyline"]) == sequential.skyline == naive.skyline
    assert tuple(result["dominator"]) == sequential.dominator
    assert result["candidate_size"] == sequential.candidate_size
    assert result["size"] == sequential.size


@pytest.mark.parametrize("name", GRAPHS)
@pytest.mark.parametrize("measure", ("closeness", "harmonic"))
def test_served_group_equals_direct_greedy(server, name, measure):
    graph = load(name)
    doc = _query(
        server,
        {"graph": name, "kind": "group", "k": 4, "measure": measure},
    )
    result = doc["result"]
    run = neisky_gc if measure == "closeness" else neisky_gh
    direct = run(graph, 4)
    assert tuple(result["group"]) == direct.group
    assert tuple(result["gains"]) == direct.gains
    assert result["evaluations"] == direct.evaluations
    assert result["pool_size"] == direct.pool_size


@pytest.mark.parametrize("name", GRAPHS)
def test_served_clique_equals_direct_stack(server, name):
    graph = load(name)
    top1 = _query(server, {"graph": name, "kind": "clique"})["result"]
    assert top1["cliques"] == [neisky_mc(graph)]
    top3 = _query(
        server, {"graph": name, "kind": "clique", "top_k": 3}
    )["result"]
    assert top3["cliques"] == neisky_topk_mcc(graph, 3)
    assert top3["sizes"] == [len(c) for c in top3["cliques"]]


def test_concurrent_clients_across_graphs(server):
    """A burst of mixed queries over both graphs, all bit-for-bit."""
    expected = {
        name: filter_refine_sky(load(name)).skyline for name in GRAPHS
    }
    payloads = [
        {"graph": GRAPHS[i % 2], "kind": "skyline", "priority": i % 3}
        for i in range(12)
    ]
    with ThreadPoolExecutor(max_workers=8) as pool:
        docs = list(
            pool.map(lambda p: _query(server, p), payloads)
        )
    for payload, doc in zip(payloads, docs):
        assert doc["graph"] == payload["graph"]
        assert (
            tuple(doc["result"]["skyline"]) == expected[payload["graph"]]
        )


# ---------------------------------------------------------------------
# Observability schema
# ---------------------------------------------------------------------
def test_health_schema(server):
    status, doc = server.request("GET", "/health")
    assert status == 200
    assert doc["status"] == "ok"
    assert doc["graphs"] == sorted(GRAPHS)
    assert {
        "depth",
        "capacity",
        "enqueued_total",
        "dequeued_total",
        "rejected_total",
        "expired_total",
    } <= set(doc["queue"])
    assert isinstance(doc["served_queries"], int)
    # PR 9: the self-healing surface — engine heartbeat + per-graph
    # breakers (empty until a graph first faults) + queue breakdown.
    engine = doc["engine"]
    assert {"busy", "queries_started", "queries_finished", "stalled"} <= set(
        engine
    )
    assert engine["stalled"] is False
    assert isinstance(doc["breakers"], dict)
    assert isinstance(doc["queue_by_graph"], dict)


def test_metrics_schema(server):
    _query(server, {"graph": "karate", "kind": "skyline"})
    status, doc = server.request("GET", "/metrics")
    assert status == 200
    assert set(doc) == {
        "requests",
        "queue",
        "queue_wait",
        "service_time",
        "engine",
        "supervision",
    }
    assert doc["requests"]["skyline"]["200"] >= 1
    assert {
        "engine_failures",
        "rebuilds",
        "breaker_transitions",
        "degraded",
        "injected_faults",
    } == set(doc["supervision"])
    # A healthy server has healed nothing.
    assert doc["supervision"]["rebuilds"] == {}
    for histogram in (doc["queue_wait"], doc["service_time"]):
        assert {"count", "sum_s", "buckets"} <= set(histogram)
        assert histogram["count"] >= 1
        assert "p99_s" in histogram
    assert {"counters", "extra"} == set(doc["engine"])
    # The skyline computations' counters flow through.
    assert doc["engine"]["counters"].get("pair_tests", 0) > 0
    assert doc["queue"]["capacity"] == 32


def test_graphs_listing(server):
    status, doc = server.request("GET", "/graphs")
    assert status == 200
    by_name = {g["name"]: g for g in doc["graphs"]}
    assert set(by_name) == set(GRAPHS)
    karate = by_name["karate"]
    assert karate["vertices"] == 34
    assert karate["edges"] == 78
    assert karate["source"] == "dataset:karate"
    assert karate["rebuilds"] == 0


# ---------------------------------------------------------------------
# Error paths
# ---------------------------------------------------------------------
def test_unknown_graph_is_404(server):
    doc = _query(
        server, {"graph": "atlantis", "kind": "skyline"}, expect=404
    )
    assert "unknown graph" in doc["error"]


def test_bad_inputs_are_400(server):
    _query(server, {"graph": "karate", "kind": "pagerank"}, expect=400)
    _query(server, {"kind": "skyline"}, expect=400)
    _query(
        server,
        {"graph": "karate", "kind": "skyline", "priority": "high"},
        expect=400,
    )
    _query(
        server,
        {"graph": "karate", "kind": "skyline", "timeout_s": -1},
        expect=400,
    )
    _query(
        server,
        {"graph": "karate", "kind": "group", "k": -3},
        expect=400,
    )
    _query(
        server,
        {"graph": "karate", "kind": "group", "use_skyline": "false"},
        expect=400,
    )


def test_unknown_query_key_is_400(server):
    doc = _query(
        server, {"graph": "karate", "kind": "group", "K": 3}, expect=400
    )
    assert doc["error"] == (
        "unknown group query parameter 'K'; allowed: "
        "['k', 'measure', 'use_skyline']"
    )


def test_unknown_dataset_spec_is_400_unquoted(server):
    status, doc = server.request("POST", "/graphs", {"spec": "nosuch"})
    assert status == 400, doc
    assert doc["error"].startswith("unknown dataset 'nosuch'; known")
    assert not doc["error"].endswith('"')


def _post_raw(server, path, body: bytes):
    """POST ``body`` verbatim; ``(status, decoded_json)``."""
    conn = http.client.HTTPConnection(
        server.config.host, server.port, timeout=30
    )
    try:
        conn.request(
            "POST",
            path,
            body=body,
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        return response.status, json.loads(response.read().decode())
    finally:
        conn.close()


@pytest.mark.parametrize(
    "value",
    [b"NaN", b"Infinity", b"-Infinity", b"1e309", b"1" + b"0" * 400],
    ids=["nan", "inf", "-inf", "1e309", "int-1e400"],
)
def test_non_finite_timeout_is_400(server, value):
    body = b'{"graph": "karate", "kind": "skyline", "timeout_s": %s}' % value
    status, doc = _post_raw(server, "/query", body)
    assert status == 400, doc
    assert "timeout_s" in doc["error"]
    assert "\n" not in doc["error"]


def _nested(depth: int) -> bytes:
    return b"[" * depth + b"]" * depth


@pytest.mark.parametrize(
    "path, body",
    [
        ("/query", _nested(200_000)),
        (
            "/query",
            b'{"graph": "karate", "kind": "skyline", "x": '
            + _nested(50_000)
            + b"}",
        ),
        ("/graphs", b'{"spec": ' + _nested(50_000) + b"}"),
    ],
    ids=["query-200k", "query-param-50k", "graphs-50k"],
)
def test_deeply_nested_json_is_400(server, path, body):
    status, doc = _post_raw(server, path, body)
    assert status == 400, doc
    assert doc["error"].startswith("invalid JSON body")
    assert "\n" not in doc["error"]
    # The server is still healthy afterwards.
    assert server.request("GET", "/health")[0] == 200


def test_stalled_request_body_is_408(server, monkeypatch):
    """A client that declares a 100-byte body, sends 2 bytes and keeps
    the socket open is answered 408 once the read deadline passes, and
    the connection is closed."""
    monkeypatch.setattr(server_module, "READ_DEADLINE_S", 0.2)
    with socket.create_connection(
        (server.config.host, server.port), timeout=5.0
    ) as sock:
        t0 = time.perf_counter()
        sock.sendall(
            b"POST /query HTTP/1.1\r\nHost: x\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: 100\r\n\r\n{}"
        )
        response = b""
        while chunk := sock.recv(4096):
            response += chunk
        elapsed = time.perf_counter() - t0
    assert response.startswith(b"HTTP/1.1 408 Request Timeout\r\n")
    error = json.loads(response.split(b"\r\n\r\n", 1)[1])["error"]
    assert "\n" not in error
    assert 0.2 <= elapsed < 3.0
    # The server still answers the next, well-formed request.
    assert server.request("GET", "/health")[0] == 200


def test_unknown_route_404_and_wrong_method_405(server):
    status, doc = server.request("GET", "/nope")
    assert status == 404
    assert "/query" in doc["routes"]
    status, _ = server.request("GET", "/query")
    assert status == 405
    status, _ = server.request("POST", "/metrics", {})
    assert status == 405


def test_non_json_body_is_400(server):
    status, doc = _post_raw(server, "/query", b"not json at all")
    assert status == 400, doc


# ---------------------------------------------------------------------
# Backpressure and deadlines, end to end (dedicated server: the
# dispatch gate pauses the worker, so requests pile up deterministically)
# ---------------------------------------------------------------------
def test_backpressure_and_deadline_end_to_end():
    registry = GraphRegistry(workers=1)
    registry.register_spec("karate")
    config = ServeConfig(port=0, queue_capacity=2, default_timeout_s=30.0)
    with ServerThread(registry, config) as handle:
        handle.call_in_loop(handle.server.dispatch_gate.clear)
        with ThreadPoolExecutor(max_workers=4) as pool:
            # Two requests fill the queue (worker is paused)...
            queued = [
                pool.submit(
                    handle.request,
                    "POST",
                    "/query",
                    {
                        "graph": "karate",
                        "kind": "skyline",
                        "timeout_s": 0.3,
                    },
                )
                for _ in range(2)
            ]
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                _, health = handle.request("GET", "/health")
                if health["queue"]["depth"] == 2:
                    break
                time.sleep(0.01)
            assert health["queue"]["depth"] == 2
            # ... the third bounces with 429 and a Retry-After hint ...
            status, doc = handle.request(
                "POST", "/query", {"graph": "karate", "kind": "skyline"}
            )
            assert status == 429
            assert "queue" in doc
            # ... and the queued ones expire to 504 without ever
            # reaching an engine (the worker never dispatched).
            statuses = sorted(f.result()[0] for f in queued)
            assert statuses == [504, 504]
        handle.call_in_loop(handle.server.dispatch_gate.set)
        _, metrics = handle.request("GET", "/metrics")
        assert metrics["queue"]["rejected_total"] == 1
        assert metrics["queue"]["expired_total"] == 2
        assert metrics["queue"]["dequeued_total"] == 0  # nothing ran
        assert metrics["requests"]["skyline"]["429"] == 1
        assert metrics["requests"]["skyline"]["504"] == 2


def test_deadline_expires_while_another_query_holds_the_engine():
    """A queued request whose ``timeout_s`` runs out while an earlier
    query on the same graph holds the engine is answered 504 and never
    dispatched: requests leave the queue one at a time."""
    registry = GraphRegistry(workers=1)
    registry.register_spec("karate")
    config = ServeConfig(port=0, queue_capacity=4, default_timeout_s=30.0)
    plan = ServeFaultPlan.single("slow", "karate", 0, slow_seconds=2.0)
    with ServerThread(registry, config, fault_plan=plan) as handle:
        handle.call_in_loop(handle.server.dispatch_gate.clear)
        with ThreadPoolExecutor(max_workers=2) as pool:
            payloads = [
                {"graph": "karate", "kind": "skyline", "priority": 0},
                {
                    "graph": "karate",
                    "kind": "skyline",
                    "priority": 5,
                    "timeout_s": 1.0,
                },
            ]
            futures = []
            for payload in payloads:  # admitted in this order
                futures.append(
                    pool.submit(handle.request, "POST", "/query", payload)
                )
                deadline = time.monotonic() + 5.0
                while time.monotonic() < deadline:
                    _, health = handle.request("GET", "/health")
                    if health["queue"]["enqueued_total"] == len(futures):
                        break
                    time.sleep(0.01)
            handle.call_in_loop(handle.server.dispatch_gate.set)
            holder, waiter = (f.result() for f in futures)
        assert holder[0] == 200
        assert waiter[0] == 504, waiter
        _, metrics = handle.request("GET", "/metrics")
        _, health = handle.request("GET", "/health")
    assert metrics["queue"]["dequeued_total"] == 1
    assert metrics["queue"]["expired_total"] == 1
    assert metrics["requests"]["skyline"] == {"200": 1, "504": 1}
    assert health["engine"]["queries_started"] == 1


# ---------------------------------------------------------------------
# One skyline computation per graph
# ---------------------------------------------------------------------
def test_served_skyline_is_computed_once_per_graph():
    """N skyline queries, then a group and a clique query, on one fresh
    graph: the engine counters in /metrics are exactly one
    ``neighborhood_skyline`` call's, and every payload is bit-for-bit
    the direct API result."""
    from repro.core import SkylineCounters

    graph = load("bombing_proxy")
    direct_counters = SkylineCounters()
    direct = neighborhood_skyline(graph, counters=direct_counters)
    registry = GraphRegistry()
    registry.register("g", graph)
    config = ServeConfig(port=0, queue_capacity=16)
    with ServerThread(registry, config) as handle:
        for _ in range(5):
            result = _query(handle, {"graph": "g", "kind": "skyline"})[
                "result"
            ]
            assert result["algorithm"] == direct.algorithm
            assert tuple(result["skyline"]) == direct.skyline
            assert tuple(result["dominator"]) == direct.dominator
            assert result["candidate_size"] == direct.candidate_size
            assert result["size"] == direct.size
        group = _query(handle, {"graph": "g", "kind": "group", "k": 3})[
            "result"
        ]
        expected = neisky_gc(graph, 3, skyline=direct.skyline)
        assert tuple(group["group"]) == expected.group
        assert tuple(group["gains"]) == expected.gains
        assert group["evaluations"] == expected.evaluations
        clique = _query(handle, {"graph": "g", "kind": "clique"})["result"]
        assert clique["cliques"] == [neisky_mc(graph, skyline=direct.skyline)]
        status, metrics = handle.request("GET", "/metrics")
    assert status == 200
    engine = metrics["engine"]
    assert engine["counters"] == direct_counters.as_dict()
    assert engine["extra"] == direct_counters.extra
