"""Fig. 7 (Exp-4) — Greedy++-style BaseGC vs NeiSkyGC, varying k.

One sub-table per dataset (the paper's Fig. 7a–e).  NeiSkyGC times
include computing the skyline.  Expected shape: both runtimes grow with
k; NeiSkyGC consistently faster (paper: 1.35–2.5×), because it evaluates
``k(2r − k + 1)/2`` marginal gains instead of ``k(2n − k + 1)/2``.

The lazy (CELF) engine rides along as a second comparison: the same
NeiSkyGC computation with ``strategy="lazy"`` — identical group and
gains, far fewer evaluations (the CSR kernels claim the rest of the
gap).  Wall times and evaluation counts for both schedules land in
``BENCH_skyline.json`` under ``bench="fig7_group_closeness"``.

Instances and the k-ladder are scaled as described in
``benchmarks/_datasets.py``.
"""

import time

import pytest

from _datasets import GROUP_K_VALUES, centrality_instance, cold_copy
from _greedy_bench import record_lazy
from repro.centrality import base_gc, neisky_gc
from repro.core import filter_refine_sky
from repro.harness.benchjson import bench_entry
from repro.workloads import TABLE1_NAMES

_RESULTS: dict[tuple[str, int], dict[str, float]] = {}

BENCH = "fig7_group_closeness"


def _record(figure_report, name, k, label, elapsed, evaluations):
    key = (name, k)
    _RESULTS.setdefault(key, {})[label] = elapsed
    _RESULTS[key][label + "_evals"] = evaluations
    row = _RESULTS[key]
    if "Greedy++" in row and "NeiSkyGC" in row:
        report = figure_report(
            "Figure 7",
            "Group closeness maximization: Greedy++ (BaseGC) vs NeiSkyGC",
            (
                "dataset",
                "k",
                "Greedy++ (s)",
                "NeiSkyGC (s)",
                "speedup",
                "base evals",
                "sky evals",
            ),
        )
        report.add_row(
            name,
            k,
            row["Greedy++"],
            row["NeiSkyGC"],
            row["Greedy++"] / row["NeiSkyGC"],
            int(row["Greedy++_evals"]),
            int(row["NeiSkyGC_evals"]),
        )


@pytest.mark.parametrize("name", TABLE1_NAMES)
@pytest.mark.parametrize("k", GROUP_K_VALUES)
def test_fig7_base_gc(benchmark, figure_report, bench_json, name, k):
    graph = centrality_instance(name)
    start = time.perf_counter()
    result = benchmark.pedantic(
        base_gc,
        args=(graph, k),
        kwargs={"strategy": "eager"},
        rounds=1,
        iterations=1,
    )
    elapsed = time.perf_counter() - start
    _record(figure_report, name, k, "Greedy++", elapsed, result.evaluations)
    bench_json(
        bench_entry(
            bench=BENCH,
            instance=name,
            algorithm=f"Greedy++(k={k})",
            wall_s=elapsed,
            extra={
                "k": k,
                "strategy": "eager",
                "evaluations": result.evaluations,
            },
        )
    )


@pytest.mark.parametrize("name", TABLE1_NAMES)
@pytest.mark.parametrize("k", GROUP_K_VALUES)
def test_fig7_neisky_gc(benchmark, figure_report, bench_json, name, k):
    graph = centrality_instance(name)

    def run():
        skyline = filter_refine_sky(graph).skyline
        return neisky_gc(graph, k, skyline=skyline, strategy="eager")

    start = time.perf_counter()
    result = benchmark.pedantic(run, rounds=1, iterations=1)
    elapsed = time.perf_counter() - start
    _record(figure_report, name, k, "NeiSkyGC", elapsed, result.evaluations)
    bench_json(
        bench_entry(
            bench=BENCH,
            instance=name,
            algorithm=f"NeiSkyGC(k={k})",
            wall_s=elapsed,
            extra={
                "k": k,
                "strategy": "eager",
                "evaluations": result.evaluations,
            },
        )
    )


@pytest.mark.parametrize("name", TABLE1_NAMES)
@pytest.mark.parametrize("k", GROUP_K_VALUES)
def test_fig7_lazy_gc(benchmark, figure_report, bench_json, name, k):
    # Same NeiSkyGC computation under the CELF schedule + CSR kernels;
    # the result is asserted identical before the timing is recorded.
    # Its own graph object: the round-0 memo must start cold.
    graph = cold_copy(centrality_instance(name))
    skyline = filter_refine_sky(graph).skyline
    eager = neisky_gc(graph, k, skyline=skyline, strategy="eager")

    def run():
        # Recompute the skyline inside the timed body so the wall time
        # covers the same work as the eager NeiSkyGC benchmark.
        sky = filter_refine_sky(graph).skyline
        return neisky_gc(graph, k, skyline=sky, strategy="lazy")

    start = time.perf_counter()
    result = benchmark.pedantic(run, rounds=1, iterations=1)
    elapsed = time.perf_counter() - start
    assert result.group == eager.group
    assert result.gains == eager.gains
    record_lazy(
        figure_report,
        bench_json,
        _RESULTS,
        bench=BENCH,
        figure="Figure 7",
        instance=name,
        key=(name, k),
        label_args=(f"k={k}",),
        eager_label="NeiSkyGC",
        lazy_label="LazyNeiSkyGC",
        elapsed=elapsed,
        result=result,
    )
