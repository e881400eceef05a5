"""Fig. 11 (Exp-7) — scalability of Greedy++ (BaseGC) vs NeiSkyGC.

LiveJournal centrality instance subsampled along ``n`` and ``ρ``; fixed
``k``.  Expected shape: NeiSkyGC faster at every point, growing more
smoothly.  The lazy (CELF + CSR) schedule of the NeiSkyGC computation
rides along; both schedules land in ``BENCH_skyline.json`` under
``bench="fig11_scalability_gc"``.
"""

import time

import pytest

from _datasets import (
    GROUP_K_DEFAULT,
    SCALING_FRACTIONS,
    cold_copy,
    scalability_centrality_instance,
)
from _greedy_bench import record_lazy
from repro.centrality import base_gc, neisky_gc
from repro.core import filter_refine_sky
from repro.harness.benchjson import bench_entry

BENCH = "fig11_scalability_gc"

_RESULTS: dict[tuple[str, float], dict[str, float]] = {}


def _record(figure_report, axis, fraction, label, elapsed):
    key = (axis, fraction)
    _RESULTS.setdefault(key, {})[label] = elapsed
    row = _RESULTS[key]
    if "Greedy++" in row and "NeiSkyGC" in row:
        report = figure_report(
            "Figure 11",
            f"Scalability of group closeness (k={GROUP_K_DEFAULT}) "
            "on livejournal_sim",
            ("axis", "fraction", "Greedy++ (s)", "NeiSkyGC (s)", "speedup"),
        )
        report.add_row(
            axis,
            fraction,
            row["Greedy++"],
            row["NeiSkyGC"],
            row["Greedy++"] / row["NeiSkyGC"],
        )


@pytest.mark.parametrize("axis", ("n", "rho"))
@pytest.mark.parametrize("fraction", SCALING_FRACTIONS)
def test_fig11_base_gc(benchmark, figure_report, axis, fraction):
    graph = scalability_centrality_instance(axis, fraction)
    start = time.perf_counter()
    benchmark.pedantic(
        base_gc,
        args=(graph, GROUP_K_DEFAULT),
        kwargs={"strategy": "eager"},
        rounds=1,
        iterations=1,
    )
    _record(figure_report, axis, fraction, "Greedy++", time.perf_counter() - start)


@pytest.mark.parametrize("axis", ("n", "rho"))
@pytest.mark.parametrize("fraction", SCALING_FRACTIONS)
def test_fig11_neisky_gc(benchmark, figure_report, bench_json, axis, fraction):
    graph = scalability_centrality_instance(axis, fraction)

    def run():
        skyline = filter_refine_sky(graph).skyline
        return neisky_gc(
            graph, GROUP_K_DEFAULT, skyline=skyline, strategy="eager"
        )

    start = time.perf_counter()
    result = benchmark.pedantic(run, rounds=1, iterations=1)
    elapsed = time.perf_counter() - start
    _record(figure_report, axis, fraction, "NeiSkyGC", elapsed)
    _RESULTS[(axis, fraction)]["NeiSkyGC_evals"] = result.evaluations
    bench_json(
        bench_entry(
            bench=BENCH,
            instance=f"livejournal_sim[{axis}={fraction}]",
            algorithm=f"NeiSkyGC(k={GROUP_K_DEFAULT})",
            wall_s=elapsed,
            extra={
                "strategy": "eager",
                "evaluations": result.evaluations,
            },
        )
    )


@pytest.mark.parametrize("axis", ("n", "rho"))
@pytest.mark.parametrize("fraction", SCALING_FRACTIONS)
def test_fig11_lazy_gc(benchmark, figure_report, bench_json, axis, fraction):
    # Same NeiSkyGC computation under the CELF schedule + CSR kernels;
    # the result is asserted identical before the timing is recorded.
    # Its own graph object: the round-0 memo must start cold.
    graph = cold_copy(scalability_centrality_instance(axis, fraction))
    skyline = filter_refine_sky(graph).skyline
    eager = neisky_gc(
        graph, GROUP_K_DEFAULT, skyline=skyline, strategy="eager"
    )

    def run():
        sky = filter_refine_sky(graph).skyline
        return neisky_gc(
            graph, GROUP_K_DEFAULT, skyline=sky, strategy="lazy"
        )

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
        figure="Figure 11",
        instance=f"livejournal_sim[{axis}={fraction}]",
        key=(axis, fraction),
        label_args=(f"k={GROUP_K_DEFAULT}",),
        eager_label="NeiSkyGC",
        lazy_label="LazyNeiSkyGC",
        elapsed=elapsed,
        result=result,
    )
