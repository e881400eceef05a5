"""Fig. 12 (Exp-7) — scalability of Greedy-H (BaseGH) vs NeiSkyGH.

Same protocol as Fig. 11 with the harmonic objective, including the
lazy (CELF + CSR) rider recorded under
``bench="fig12_scalability_gh"``.
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
from repro.centrality import base_gh, neisky_gh
from repro.core import filter_refine_sky
from repro.harness.benchjson import bench_entry

BENCH = "fig12_scalability_gh"

_RESULTS: dict[tuple[str, float], dict[str, float]] = {}


def _record(figure_report, axis, fraction, label, elapsed):
    key = (axis, fraction)
    _RESULTS.setdefault(key, {})[label] = elapsed
    row = _RESULTS[key]
    if "Greedy-H" in row and "NeiSkyGH" in row:
        report = figure_report(
            "Figure 12",
            f"Scalability of group harmonic (k={GROUP_K_DEFAULT}) "
            "on livejournal_sim",
            ("axis", "fraction", "Greedy-H (s)", "NeiSkyGH (s)", "speedup"),
        )
        report.add_row(
            axis,
            fraction,
            row["Greedy-H"],
            row["NeiSkyGH"],
            row["Greedy-H"] / row["NeiSkyGH"],
        )


@pytest.mark.parametrize("axis", ("n", "rho"))
@pytest.mark.parametrize("fraction", SCALING_FRACTIONS)
def test_fig12_base_gh(benchmark, figure_report, axis, fraction):
    graph = scalability_centrality_instance(axis, fraction)
    start = time.perf_counter()
    benchmark.pedantic(
        base_gh,
        args=(graph, GROUP_K_DEFAULT),
        kwargs={"strategy": "eager"},
        rounds=1,
        iterations=1,
    )
    _record(figure_report, axis, fraction, "Greedy-H", time.perf_counter() - start)


@pytest.mark.parametrize("axis", ("n", "rho"))
@pytest.mark.parametrize("fraction", SCALING_FRACTIONS)
def test_fig12_neisky_gh(benchmark, figure_report, bench_json, axis, fraction):
    graph = scalability_centrality_instance(axis, fraction)

    def run():
        skyline = filter_refine_sky(graph).skyline
        return neisky_gh(
            graph, GROUP_K_DEFAULT, skyline=skyline, strategy="eager"
        )

    start = time.perf_counter()
    result = benchmark.pedantic(run, rounds=1, iterations=1)
    elapsed = time.perf_counter() - start
    _record(figure_report, axis, fraction, "NeiSkyGH", elapsed)
    _RESULTS[(axis, fraction)]["NeiSkyGH_evals"] = result.evaluations
    bench_json(
        bench_entry(
            bench=BENCH,
            instance=f"livejournal_sim[{axis}={fraction}]",
            algorithm=f"NeiSkyGH(k={GROUP_K_DEFAULT})",
            wall_s=elapsed,
            extra={
                "strategy": "eager",
                "evaluations": result.evaluations,
            },
        )
    )


@pytest.mark.parametrize("axis", ("n", "rho"))
@pytest.mark.parametrize("fraction", SCALING_FRACTIONS)
def test_fig12_lazy_gh(benchmark, figure_report, bench_json, axis, fraction):
    # Same NeiSkyGH computation under the CELF schedule + CSR kernels;
    # the result is asserted identical before the timing is recorded.
    # Its own graph object: the round-0 memo must start cold.
    graph = cold_copy(scalability_centrality_instance(axis, fraction))
    skyline = filter_refine_sky(graph).skyline
    eager = neisky_gh(
        graph, GROUP_K_DEFAULT, skyline=skyline, strategy="eager"
    )

    def run():
        sky = filter_refine_sky(graph).skyline
        return neisky_gh(
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
        figure="Figure 12",
        instance=f"livejournal_sim[{axis}={fraction}]",
        key=(axis, fraction),
        label_args=(f"k={GROUP_K_DEFAULT}",),
        eager_label="NeiSkyGH",
        lazy_label="LazyNeiSkyGH",
        elapsed=elapsed,
        result=result,
    )
