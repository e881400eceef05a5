"""The three workloads: inputs, set-up, correctness gate and op sequence.

* ``skyline_rmat`` — ``load_graph(.rsky)`` then ``neighborhood_skyline``
  with API defaults on seeded R-MAT graphs: ``graph`` loading and the
  ``core`` filter/refine do the work; ``serve`` and ``centrality`` none.
* ``group_rmat`` — ``group_centrality_maximize(k=8)`` for closeness and
  harmonic on seeded R-MAT graphs, the skyline computed once per graph
  in set-up and passed in, as the serve registry caches it: the
  ``centrality`` greedy and the ``paths`` gain plane do the work.
* ``serve_mixed`` — one client against a ``repro-sky serve`` process on
  small copying-model graphs: ``serve`` (HTTP, queue, supervision, JSON)
  costs as much as the engine work here.

Every op's output is checked against a reference computed outside the
timed region; the references themselves are checked independently
(``verify_skyline``, the lazy greedy engine, direct API calls).
"""

from __future__ import annotations

import hashlib
import json
import resource
from dataclasses import dataclass
from pathlib import Path

import inputs
from tracing import NULL_TRACER


def digest(obj) -> str:
    """Digest of a JSON-able result; tuples and lists digest alike."""
    return hashlib.sha1(json.dumps(obj, sort_keys=True).encode()).hexdigest()


class WrongResult(Exception):
    """A timed op returned something other than its reference."""


@dataclass
class Op:
    """One timed step: ``run`` is timed, ``check`` runs after the clock.

    ``check`` receives ``run``'s value and raises :class:`WrongResult`
    when the output is wrong.  ``latency`` marks ops that feed the latency
    percentiles (queries, not ``/metrics`` or malformed bodies).
    """

    kind: str
    run: object
    check: object
    graph: str = ""
    latency: bool = True


def self_peak_rss_mb() -> float:
    """This process's peak resident set (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class SkylineRmat:
    name = "skyline_rmat"
    window_s = 0.0  # ops take 0.1-0.4 s: calibrate before every one
    pass_s = 2.0  # nominal pass time, which sizes the run (run.pass_count)

    def __init__(self, seed, sizes, work_dir: Path, root: Path):
        self.sizes, self.tracer = sizes, NULL_TRACER
        self.setup_reps = sizes.setup_reps
        self.paths = inputs.write_rmat_graphs(self.name, seed, sizes, work_dir)
        self.order = inputs.rmat_op_order(self.name, seed, len(self.paths), [0, 1])
        self.expected: list = []

    def graphs(self):
        return [(f"g{i}", p) for i, p in enumerate(self.paths)]

    def setup_steps(self):
        """Load every graph, then one warm-up op."""
        from repro import neighborhood_skyline
        from repro.graph.io import load_graph

        loaded = []
        return [
            lambda: loaded.extend(load_graph(p) for p in self.paths),
            lambda: neighborhood_skyline(loaded[0]),
        ]

    def verify(self) -> None:
        from repro import neighborhood_skyline
        from repro.core.verify import verify_skyline
        from repro.graph.io import load_graph

        for path in self.paths:
            graph = load_graph(path)
            result = neighborhood_skyline(graph)
            verify_skyline(graph, result)
            self.expected.append(digest(_skyline_fields(result)))

    def _op(self, index):
        from repro import neighborhood_skyline
        from repro.graph.io import load_graph

        tracer, path = self.tracer, self.paths[index]

        def run():
            with tracer.span("graph.load"):
                graph = load_graph(path)
            with tracer.span("core.skyline"):
                return neighborhood_skyline(graph)

        def check(result):
            if digest(_skyline_fields(result)) != self.expected[index]:
                raise WrongResult(f"skyline of g{index} differs from reference")

        return Op("skyline", run, check, graph=f"g{index}")

    def pass_ops(self, pass_index):
        return [self._op(index) for index, _ in self.order]

    def peak_rss_mb(self) -> float:
        return self_peak_rss_mb()

    def close(self) -> None:
        pass


def _skyline_fields(result):
    return (result.skyline, result.dominator, result.candidates)


class GroupRmat:
    name = "group_rmat"
    window_s = 0.0
    pass_s = 2.4

    def __init__(self, seed, sizes, work_dir: Path, root: Path):
        self.sizes, self.tracer = sizes, NULL_TRACER
        self.setup_reps = sizes.setup_reps
        self.paths = inputs.write_rmat_graphs(self.name, seed, sizes, work_dir)
        self.order = inputs.rmat_op_order(
            self.name, seed, len(self.paths), ["closeness", "harmonic"]
        )
        self.loaded: list = []
        self.skylines: list = []
        self.expected: dict = {}

    def graphs(self):
        return [(f"g{i}", p) for i, p in enumerate(self.paths)]

    def setup_steps(self):
        """Load every graph, precompute each skyline, one warm-up op."""
        from repro import neighborhood_skyline
        from repro.core.api import group_centrality_maximize
        from repro.graph.io import load_graph

        def load():
            self.loaded = [load_graph(p) for p in self.paths]
            self.skylines = []

        def precompute(index):
            return lambda: self.skylines.append(neighborhood_skyline(self.loaded[index]))

        def warm_up():
            group_centrality_maximize(
                self.loaded[0], self.sizes.group_k, skyline=self.skylines[0].skyline
            )

        return [load] + [precompute(i) for i in range(len(self.paths))] + [warm_up]

    def verify(self) -> None:
        """Skylines by ``verify_skyline``; groups by the lazy engine.

        Eager and lazy greedy return bit-for-bit the same group and
        gains, so the lazy run is an independent reference for the
        eager default the timed ops use.
        """
        from repro.core.api import group_centrality_maximize
        from repro.core.verify import verify_skyline

        for index, (graph, sky) in enumerate(zip(self.loaded, self.skylines)):
            verify_skyline(graph, sky)
            for measure in ("closeness", "harmonic"):
                ref = group_centrality_maximize(
                    graph,
                    self.sizes.group_k,
                    measure=measure,
                    skyline=sky.skyline,
                    strategy="lazy",
                )
                self.expected[index, measure] = digest(_group_fields(ref))

    def _op(self, index, measure):
        from repro.core.api import group_centrality_maximize

        tracer, graph = self.tracer, self.loaded[index]
        skyline, k = self.skylines[index].skyline, self.sizes.group_k

        def run():
            with tracer.span("centrality.greedy"):
                return group_centrality_maximize(
                    graph, k, measure=measure, skyline=skyline
                )

        def check(result):
            if digest(_group_fields(result)) != self.expected[index, measure]:
                raise WrongResult(f"{measure} group of g{index} differs from reference")

        return Op("group", run, check, graph=f"g{index}")

    def pass_ops(self, pass_index):
        return [self._op(index, measure) for index, measure in self.order]

    def peak_rss_mb(self) -> float:
        return self_peak_rss_mb()

    def close(self) -> None:
        pass


def _group_fields(result):
    return (result.group, result.gains, result.pool_size)


class ServeSession:
    """A served graph set, its request template and its references.

    Hosted graphs are named ``g0, g1, ...``; each pass registers one
    fresh ``.rsky`` (cycling through ``fresh``) under the alias
    ``fresh_p<pass>`` and queries it cold.  A run has a fixed number of
    passes, so every run ends with the same graphs registered.  Used by
    ``serve_mixed`` and, with a smaller template, by the traced layer
    probe of the other workloads.
    """

    def __init__(self, name, seed, sizes, root, work_dir, hosted, fresh, per_graph=None):
        self.root, self.work_dir, self.tracer = root, work_dir, NULL_TRACER
        self.hosted = {f"g{i}": p for i, p in enumerate(hosted)}
        self.fresh = list(fresh)
        self.template = inputs.serve_template(
            name, seed, list(self.hosted), sizes, per_graph=per_graph
        )
        self.expected: dict = {}
        self.server = None
        self._spawns = 0

    # -- correctness gate (direct API calls, no server) -----------------
    def verify(self) -> None:
        """Reference result per (graph, kind, params) in the template.

        Computed through the same ``execute_query`` dispatch a healthy
        server uses, on a private registry; every skyline the queries
        build on is checked with ``verify_skyline`` first.
        """
        from repro.core.verify import verify_skyline
        from repro.serve import GraphRegistry
        from repro.serve.registry import execute_query

        sources = dict(self.hosted)
        sources.update({f"fresh{i}": p for i, p in enumerate(self.fresh)})
        registry = GraphRegistry(workers=1)
        try:
            for name, path in sources.items():
                entry = registry.register_spec(f"{name}={path}")
                verify_skyline(entry.graph, entry.skyline_result())
            for step in self.template:
                if step.kind not in inputs.QUERY_KINDS:
                    continue
                names = [step.graph] if step.graph != "fresh" else [
                    f"fresh{i}" for i in range(len(self.fresh))
                ]
                for name in names:
                    key = (name, step.kind, step.params)
                    if key not in self.expected:
                        payload = execute_query(
                            registry.entry(name), step.kind, dict(step.params)
                        )
                        payload.pop("_counters", None)
                        self.expected[key] = digest(payload)
        finally:
            registry.close()

    # -- server lifecycle -------------------------------------------------
    def start_steps(self):
        """Spawn and wait for ``/health`` 200, then warm each graph up.

        A previous server of this session is stopped first, so repeated
        set-ups measure a cold start every time.
        """
        from serveclient import ServerProcess

        def spawn():
            self.stop()
            self._spawns += 1
            specs = [f"{name}={path}" for name, path in self.hosted.items()]
            log = self.work_dir / f"server-{self._spawns}.log"
            self.server = ServerProcess(self.root, specs, log)
            self.server.wait_ready()

        def warm_up(name):
            # A clique query fills the graph's skyline cache; the skyline
            # query is the warm-up op.
            def step():
                for body in ({"kind": "clique"}, {"kind": "skyline"}):
                    status, _ = self.server.request(
                        "POST", "/query", json.dumps({"graph": name, **body}).encode()
                    )
                    if status != 200:
                        raise RuntimeError(f"warm-up {body} on {name} answered {status}")

            return step

        return [spawn] + [warm_up(name) for name in self.hosted]

    def start(self) -> None:
        for step in self.start_steps():
            step()

    def stop(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    def queue_wait_p50_ms(self) -> float:
        status, body = self.server.request("GET", "/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        return (json.loads(body)["queue_wait"].get("p50_s") or 0.0) * 1000.0

    # -- the op sequence --------------------------------------------------
    def pass_ops(self, pass_index):
        fresh_index = pass_index % len(self.fresh)
        fresh_alias = f"fresh_p{pass_index}"
        return [
            self._op(step, fresh_alias, fresh_index) for step in self.template
        ]

    def _op(self, step, fresh_alias, fresh_index):
        tracer = self.tracer

        def http(method, path, body=None, span="serve.http"):
            def run():
                with tracer.span(span):
                    return self.server.request(method, path, body)

            return run

        if step.kind == "malformed":
            return Op("malformed", http("POST", "/query", step.body), _expect(400), latency=False)
        if step.kind == "metrics":
            return Op("metrics", http("GET", "/metrics"), _expect(200, json_body=True), latency=False)
        if step.kind == "register":
            spec = f"{fresh_alias}={self.fresh[fresh_index]}"
            body = json.dumps({"spec": spec}).encode()
            return Op(
                "register",
                http("POST", "/graphs", body, span="serve.register"),
                _expect(200, json_body=True),
                latency=False,
            )
        if step.graph == "fresh":
            graph, ref_name = fresh_alias, f"fresh{fresh_index}"
        else:
            graph = ref_name = step.graph
        expected = self.expected[ref_name, step.kind, step.params]

        def check(value):
            status, body = value
            if status != 200:
                raise WrongResult(f"{step.kind} on {graph} answered {status}")
            if digest(json.loads(body)["result"]) != expected:
                raise WrongResult(f"{step.kind} on {graph} differs from direct API result")

        return Op(step.kind, http("POST", "/query", inputs.query_body(step, graph)), check, graph=ref_name)


def _expect(wanted: int, json_body: bool = False):
    def check(value):
        status, body = value
        if status != wanted:
            raise WrongResult(f"expected {wanted}, got {status}")
        if json_body:
            json.loads(body)

    return check


class ServeMixed:
    name = "serve_mixed"
    #: Requests take 1-100 ms; sample between them at least every 0.25 s,
    #: so no window exceeds 0.5 s.
    window_s = 0.25
    pass_s = 2.2

    def __init__(self, seed, sizes, work_dir: Path, root: Path):
        self.tracer = NULL_TRACER
        self.setup_reps = sizes.serve_setup_reps
        hosted = inputs.write_copying_graphs(self.name, seed, sizes.serve_sizes, "hosted", work_dir)
        fresh = inputs.write_copying_graphs(self.name, seed, sizes.fresh_sizes, "fresh", work_dir)
        self.session = ServeSession(self.name, seed, sizes, root, work_dir, hosted, fresh)

    def graphs(self):
        return list(self.session.hosted.items())

    def setup_steps(self):
        return self.session.start_steps()

    def verify(self) -> None:
        self.session.verify()

    def pass_ops(self, pass_index):
        self.session.tracer = self.tracer
        return self.session.pass_ops(pass_index)

    def peak_rss_mb(self) -> float:
        return self.session.server.peak_rss_mb()

    def close(self) -> None:
        self.session.stop()


WORKLOADS = {w.name: w for w in (SkylineRmat, GroupRmat, ServeMixed)}
