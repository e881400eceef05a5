"""Chaos against the live server: faults injected through ServerThread.

This suite proves the serving layer's self-healing end-to-end over
real sockets, with faults injected through `harness/faults.py`:

* a transient engine fault heals invisibly — the client sees a plain
  200, bit-for-bit the direct API result, and /metrics records the
  rebuild;
* a persistent fault opens that graph's breaker: ``skyline`` serves the
  cached last-known-good copy marked ``degraded: true``, ``group``
  answers 503 with ``Retry-After``, the *other* hosted graph keeps
  serving at full fidelity, and after the cooldown a probe re-closes
  the breaker;
* a hang, and a real over-deadline query, stop at the query deadline:
  503 + ``Retry-After``, no retry, no rebuild, no engine work left
  running, and the graph's cached skyline still serves;
* ``POST /graphs`` registration failures are 4xx with one clear line
  (corrupt file, duplicate name), never a server-killing traceback;
* shutdown under fault — mid-chaos stop(), and SIGTERM to a real
  ``repro-sky serve`` subprocess with its breaker open — drains with
  503 and exits 0.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.core.api import neighborhood_skyline
from repro.core.filter_refine import filter_refine_sky
from repro.graph.generators import barabasi_albert
from repro.harness.faults import ServeFaultPlan
from repro.serve import GraphRegistry, ServeConfig, ServerThread
from repro.serve.supervision import SupervisionConfig
from repro.workloads import load


def _registry(*names):
    registry = GraphRegistry(workers=1)
    for name in names:
        registry.register_spec(name)
    return registry


def _config(**supervision_overrides):
    base = dict(
        max_query_retries=2,
        breaker_threshold=2,
        breaker_cooldown_s=0.2,
    )
    base.update(supervision_overrides)
    return ServeConfig(
        port=0,
        queue_capacity=32,
        default_timeout_s=60.0,
        supervision=SupervisionConfig(**base),
    )


def _query(handle, payload, expect=200):
    status, doc = handle.request("POST", "/query", payload)
    assert status == expect, doc
    return doc


def _raw_request(handle, payload):
    """One round-trip that also returns the response headers."""
    conn = http.client.HTTPConnection(
        handle.config.host, handle.port, timeout=60
    )
    try:
        conn.request(
            "POST",
            "/query",
            body=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        doc = json.loads(response.read().decode())
        return response.status, dict(response.getheaders()), doc
    finally:
        conn.close()


# ---------------------------------------------------------------------
# Transient faults heal invisibly
# ---------------------------------------------------------------------
@pytest.mark.parametrize(
    "kind", ["engine-exception", "session-poison"]
)
def test_transient_fault_serves_bitforbit_200(kind):
    plan = ServeFaultPlan.single(kind, "karate", 0)
    direct = filter_refine_sky(load("karate"))
    with ServerThread(
        _registry("karate"), _config(), fault_plan=plan
    ) as handle:
        doc = _query(handle, {"graph": "karate", "kind": "skyline"})
        assert "degraded" not in doc
        assert tuple(doc["result"]["skyline"]) == direct.skyline
        assert tuple(doc["result"]["dominator"]) == direct.dominator
        _, metrics = handle.request("GET", "/metrics")
        assert metrics["supervision"]["rebuilds"] == {"karate": 1}
        assert metrics["supervision"]["injected_faults"] == {
            f"karate:{kind}": 1
        }
        assert metrics["requests"]["skyline"]["200"] == 1
        _, health = handle.request("GET", "/health")
        assert health["breakers"]["karate"]["state"] == "closed"
        assert health["rebuilds"] == {"karate": 1}
        _, graphs = handle.request("GET", "/graphs")
        assert graphs["graphs"][0]["rebuilds"] == 1


def test_hang_answers_503_then_serves():
    plan = ServeFaultPlan.single("hang", "karate", 0, hang_seconds=10.0)
    direct = filter_refine_sky(load("karate"))
    with ServerThread(
        _registry("karate"),
        _config(query_deadline_s=0.3),
        fault_plan=plan,
    ) as handle:
        status, headers, doc = _raw_request(
            handle, {"graph": "karate", "kind": "skyline"}
        )
        assert status == 503, doc
        assert headers["Retry-After"] == "1"
        assert "deadline" in doc["error"]
        doc = _query(handle, {"graph": "karate", "kind": "skyline"})
        assert tuple(doc["result"]["skyline"]) == direct.skyline
        _, metrics = handle.request("GET", "/metrics")
        assert metrics["supervision"]["engine_failures"] == {
            "karate:DeadlineExceeded": 1
        }
        assert metrics["supervision"]["rebuilds"] == {}


def _engine_threads():
    return [
        thread
        for thread in threading.enumerate()
        if thread.name.startswith("repro-serve-engine")
    ]


def test_over_deadline_query_leaves_no_zombie_work():
    """A real query past its deadline (a k=500 Base greedy on a
    3000-vertex graph, no fault plan) stops at the next greedy round:
    503 + Retry-After, no engine thread still busy one check interval
    later, and the skyline cache it never touched keeps serving."""
    graph = barabasi_albert(3000, 4, seed=1)
    registry = GraphRegistry(workers=1)
    registry.register("ba", graph, source="generated")
    deadline_s = 0.2
    with ServerThread(
        registry, _config(query_deadline_s=deadline_s)
    ) as handle:
        _query(handle, {"graph": "ba", "kind": "skyline"})
        started = time.monotonic()
        status, headers, doc = _raw_request(
            handle,
            {"graph": "ba", "kind": "group", "k": 500, "use_skyline": False},
        )
        elapsed = time.monotonic() - started
        assert status == 503, doc
        assert int(headers["Retry-After"]) >= 1
        assert "deadline" in doc["error"]
        # The unbounded query takes seconds; the deadline cut it at the
        # first greedy-round boundary past 0.2 s (generous for CI).
        assert elapsed < deadline_s + 2.0

        time.sleep(0.05)  # one check interval: a greedy round here
        _, health = handle.request("GET", "/health")
        assert health["engine"]["busy"] is False
        assert (
            health["engine"]["queries_started"]
            == health["engine"]["queries_finished"]
        )
        assert len(_engine_threads()) == 1  # no abandoned executors

        _, graphs = handle.request("GET", "/graphs")
        (row,) = graphs["graphs"]
        assert row["skyline_cached"] is True
        assert row["rebuilds"] == 0
        _, metrics = handle.request("GET", "/metrics")
        assert metrics["supervision"]["engine_failures"] == {
            "ba:DeadlineExceeded": 1
        }
        assert metrics["supervision"]["rebuilds"] == {}

        doc = _query(handle, {"graph": "ba", "kind": "skyline"})
        direct = neighborhood_skyline(graph)
        assert doc["result"]["skyline"] == list(direct.skyline)
        assert doc["result"]["dominator"] == list(direct.dominator)
        assert doc["result"]["candidate_size"] == direct.candidate_size
    assert _engine_threads() == []


# ---------------------------------------------------------------------
# Persistent faults: breaker, degradation, isolation, probe re-close
# ---------------------------------------------------------------------
def test_breaker_degradation_isolation_and_reclose():
    # karate: clean dispatch 0 (primes the degraded cache), then faults
    # through index 59; bombing_proxy never faults.
    plan = ServeFaultPlan(
        {("karate", i): "engine-exception" for i in range(1, 60)}
    )
    direct = {
        name: filter_refine_sky(load(name)).skyline
        for name in ("karate", "bombing_proxy")
    }
    with ServerThread(
        _registry("karate", "bombing_proxy"),
        _config(max_query_retries=0, breaker_cooldown_s=0.5),
        fault_plan=plan,
    ) as handle:
        good = _query(handle, {"graph": "karate", "kind": "skyline"})
        assert tuple(good["result"]["skyline"]) == direct["karate"]

        # Hammer until the breaker opens (threshold 2, no retries).
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            status, doc = handle.request(
                "POST", "/query", {"graph": "karate", "kind": "skyline"}
            )
            _, health = handle.request("GET", "/health")
            state = health["breakers"].get("karate", {}).get("state")
            if state == "open":
                break
        assert state == "open"

        # Degraded skyline: 200, marked, and still the exact answer —
        # the graph is immutable, so stale == correct here.
        status, doc = handle.request(
            "POST", "/query", {"graph": "karate", "kind": "skyline"}
        )
        assert status == 200
        assert doc["degraded"] is True
        assert tuple(doc["result"]["skyline"]) == direct["karate"]

        # Uncacheable kind: 503 with a Retry-After header.
        status, headers, doc = _raw_request(
            handle, {"graph": "karate", "kind": "group", "k": 2}
        )
        assert status == 503
        assert int(headers["Retry-After"]) >= 1
        assert "degraded" in doc["error"]

        # Isolation: the healthy graph is untouched, full fidelity.
        clean = _query(
            handle, {"graph": "bombing_proxy", "kind": "skyline"}
        )
        assert "degraded" not in clean
        assert (
            tuple(clean["result"]["skyline"]) == direct["bombing_proxy"]
        )
        _, health = handle.request("GET", "/health")
        assert (
            health["breakers"]["bombing_proxy"]["state"] == "closed"
        )

        # After the cooldown the plan has run dry (index >= 60), so the
        # half-open probe succeeds and the breaker re-closes.
        handle.server.supervision._dispatches["karate"] = 60
        time.sleep(0.6)
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            doc = _query(handle, {"graph": "karate", "kind": "skyline"})
            if "degraded" not in doc:
                break
            time.sleep(0.1)
        assert "degraded" not in doc
        assert tuple(doc["result"]["skyline"]) == direct["karate"]
        _, health = handle.request("GET", "/health")
        assert health["breakers"]["karate"]["state"] == "closed"
        assert health["breakers"]["karate"]["probes_total"] >= 1


def test_degraded_cache_disabled_means_503_for_everything():
    plan = ServeFaultPlan.always("engine-exception", "karate")
    with ServerThread(
        _registry("karate"),
        _config(max_query_retries=0, degraded_cache=False),
        fault_plan=plan,
    ) as handle:
        seen = set()
        for _ in range(4):
            status, _ = handle.request(
                "POST", "/query", {"graph": "karate", "kind": "skyline"}
            )
            seen.add(status)
        assert seen == {503}


# ---------------------------------------------------------------------
# POST /graphs: live registration, 4xx failure modes (satellite 1)
# ---------------------------------------------------------------------
def test_live_registration_and_failure_modes(tmp_path):
    corrupt = tmp_path / "corrupt.rsky"
    # A real .rsky magic header followed by garbage: the binary loader
    # must reject it, and the server must answer 400, not die.
    corrupt.write_bytes(b"RSKY1\x00\x00\x00" + os.urandom(32))
    malformed = tmp_path / "bad.edges"
    malformed.write_text("0 1\n2 not-a-vertex\n")
    good = tmp_path / "tri.edges"
    good.write_text("0 1\n1 2\n0 2\n")

    with ServerThread(_registry("karate"), _config()) as handle:
        for source in (corrupt, malformed, tmp_path / "missing.edges"):
            status, doc = handle.request(
                "POST", "/graphs", {"spec": f"g={source}"}
            )
            assert status == 400, doc
            assert "cannot load graph" in doc["error"]
            assert "\n" not in doc["error"]  # one clear line

        status, doc = handle.request(
            "POST", "/graphs", {"spec": "karate"}
        )
        assert status == 409
        assert "already registered" in doc["error"]

        status, doc = handle.request("POST", "/graphs", {})
        assert status == 400

        status, doc = handle.request(
            "POST", "/graphs", {"spec": f"tri={good}"}
        )
        assert status == 200, doc
        assert doc["registered"]["name"] == "tri"
        assert doc["registered"]["vertices"] == 3
        result = _query(handle, {"graph": "tri", "kind": "skyline"})
        assert result["result"]["size"] >= 1


# ---------------------------------------------------------------------
# Shutdown under fault (satellite 3)
# ---------------------------------------------------------------------
def test_midchaos_stop_drains_cleanly():
    """stop() while the breaker is open and requests are queued: every
    outstanding request is answered (503 or degraded), never dropped,
    and teardown leaves zero residue (conftest enforces the residue)."""
    plan = ServeFaultPlan.always("engine-exception", "karate")
    handle = ServerThread(
        _registry("karate"),
        _config(max_query_retries=0),
        fault_plan=plan,
    )
    handle.start()
    try:
        for _ in range(4):
            status, _ = handle.request(
                "POST", "/query", {"graph": "karate", "kind": "skyline"}
            )
            assert status in (200, 503)
        _, health = handle.request("GET", "/health")
        assert health["breakers"]["karate"]["state"] == "open"
    finally:
        handle.stop()
    # Queue conservation: everything admitted was dequeued or expired.
    queue = handle.server.queue
    assert queue.depth == 0
    counters = queue.counters()
    assert (
        counters["enqueued_total"]
        == counters["dequeued_total"] + counters["expired_total"]
    )


def test_sigterm_with_open_breaker_exits_zero(tmp_path):
    """A real `repro-sky serve` process under 100%-rate chaos: SIGTERM
    while its breaker is open exits 0."""
    port_file = tmp_path / "stdout.log"
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--graph",
            "karate",
            "--port",
            "0",
            "--chaos-seed",
            "7",
            "--chaos-rate",
            "1.0",
            "--chaos-kinds",
            "engine-exception",
            "--breaker-threshold",
            "1",
            "--breaker-cooldown",
            "30",
        ],
        stdout=port_file.open("wb"),
        stderr=subprocess.STDOUT,
        env={**os.environ, "PYTHONPATH": "src"},
        cwd=os.getcwd(),
    )
    try:
        port = None
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline and port is None:
            text = port_file.read_text() if port_file.exists() else ""
            for line in text.splitlines():
                if line.startswith("serving on http://"):
                    port = int(line.split(":")[2].split(" ")[0].split("/")[0])
            time.sleep(0.05)
        assert port is not None, port_file.read_text()

        def query():
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
            try:
                conn.request(
                    "POST",
                    "/query",
                    body=b'{"graph": "karate", "kind": "skyline"}',
                    headers={"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                return response.status, json.loads(response.read())
            finally:
                conn.close()

        # Open the breaker (threshold 1, every dispatch faults; the
        # 30 s cooldown keeps it open until SIGTERM).
        statuses = [query()[0] for _ in range(4)]
        assert 503 in statuses
        # SIGTERM mid-fault: graceful drain, exit 0.
        proc.send_signal(signal.SIGTERM)
        rc = proc.wait(timeout=30)
        assert rc == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
