"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

The tiny mode runs the real command on toy inputs: every metric named
in ``BENCHMARK.json`` must come out with its unit, and the traced run
must write valid trace-event JSON.  The seed tests generate full-size
inputs at seeds 1-5 and check that the exact work they carry stays
within a few percent, so the seed given on the command line cannot move
the metrics.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
SEEDS = range(1, 6)

#: Layers whose spans every traced run must contain.
LAYER_SPANS = {
    "graph.load",
    "graph.cores",
    "core.filter",
    "core.skyline",
    "paths.bfs",
    "centrality.greedy",
    "clique.search",
    "parallel.session_refine",
    "serve.engine.skyline",
    "serve.http",
    "serve.register",
}


def run_tiny(workload: str, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )
    return proc


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


def units(metrics: dict) -> dict:
    return {name: m["unit"] for name, m in metrics.items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    result = result_of(run_tiny(workload, 0))
    assert units(result["metrics"]) == {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["metrics"]["success_ratio"]["value"] == 1.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_layer_metric_and_a_valid_trace(workload):
    result = result_of(run_tiny(workload, 1))
    assert units(result["metrics"]) == {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert result["metrics"]["serve.status_5xx"]["value"] == 0
    assert result["metrics"]["serve.status_4xx"]["value"] >= 1

    trace = json.loads((HERE / "out" / f"{workload}-seed3-trace.json").read_text())
    events = trace["traceEvents"]
    span_ids = {e["args"]["span_id"] for e in events}
    for event in events:
        assert event["ph"] == "X" and event["dur"] >= 0 and event["ts"] >= 0
        assert {"name", "pid", "tid"} <= set(event)
        assert event["args"]["parent_id"] in span_ids | {0}
        assert event["args"]["request_id"]
    assert LAYER_SPANS <= {e["name"] for e in events}


def test_counts_repeat_exactly_at_a_fixed_seed():
    first = result_of(run_tiny("skyline_rmat", 1))["metrics"]
    second = result_of(run_tiny("skyline_rmat", 1))["metrics"]
    for name, metric in first.items():
        if metric["unit"] == "count":
            assert second[name]["value"] == metric["value"], name


def test_without_the_package_source_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_tiny("skyline_rmat", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# -- seed insensitivity ------------------------------------------------------
def assert_within(per_seed: list, tolerance: float, what: str):
    lo, hi = min(per_seed), max(per_seed)
    assert hi <= lo * (1 + tolerance), f"{what} varies {lo}..{hi} across seeds"


def skyline_counts(paths):
    from repro import neighborhood_skyline
    from repro.graph.io import load_graph

    edges = candidates = skyline = 0
    graphs, skylines = [], []
    for path in paths:
        graph = load_graph(path)
        result = neighborhood_skyline(graph)
        edges += graph.num_edges
        candidates += result.candidate_size
        skyline += result.size
        graphs.append(graph)
        skylines.append(result)
    return (edges, candidates, skyline), graphs, skylines


@pytest.mark.parametrize("workload", ["skyline_rmat", "group_rmat"])
def test_rmat_work_is_seed_insensitive(workload, tmp_path):
    from repro.core.api import group_centrality_maximize

    rows = []
    for seed in SEEDS:
        paths = inputs.write_rmat_graphs(workload, seed, inputs.FULL, tmp_path)
        counts, graphs, skylines = skyline_counts(paths)
        evaluations = 0
        if workload == "group_rmat":
            for graph, sky in zip(graphs, skylines):
                for measure in ("closeness", "harmonic"):
                    evaluations += group_centrality_maximize(
                        graph, inputs.FULL.group_k, measure=measure, skyline=sky.skyline
                    ).evaluations
        rows.append(counts + (evaluations,))
    for column, what in enumerate(("edges", "|C|", "|R|", "evaluations")):
        assert_within([row[column] for row in rows], 0.03, what)


def test_serve_work_is_seed_insensitive(tmp_path):
    sizes = inputs.FULL
    rows, mixes = [], []
    for seed in SEEDS:
        hosted = inputs.write_copying_graphs("serve_mixed", seed, sizes.serve_sizes, "hosted", tmp_path)
        fresh = inputs.write_copying_graphs("serve_mixed", seed, sizes.fresh_sizes, "fresh", tmp_path)
        rows.append(skyline_counts(hosted + fresh)[0])
        names = [f"g{i}" for i in range(len(sizes.serve_sizes))]
        template = inputs.serve_template("serve_mixed", seed, names, sizes)
        mixes.append(Counter((step.kind, step.params) for step in template))
    for column, what in enumerate(("edges", "|C|", "|R|")):
        assert_within([row[column] for row in rows], 0.05, what)
    assert all(mix == mixes[0] for mix in mixes), "request-kind mix depends on the seed"
