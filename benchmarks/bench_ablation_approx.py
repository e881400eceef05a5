"""Ablation — the ε-approximate skyline (the paper's future-work remark).

Sweeps ε on the five stand-ins and reports how the (strictly monotone)
skyline size shrinks as domination is relaxed, alongside the runtime of
the threshold-counting scan (the fastest of :data:`ROUNDS` calls, also
recorded as a ``bench="ablation_approx"`` row).  ε = 0 is the exact
skyline, giving a built-in consistency check against FilterRefineSky.
"""

import pytest

from _datasets import dataset
from repro.core import filter_refine_sky
from repro.core.approx import approx_skyline
from repro.workloads import TABLE1_NAMES

EPSILONS = (0.0, 0.2, 0.4)

#: Timed calls per cell; the table reports the fastest.
ROUNDS = 3


@pytest.mark.parametrize("name", TABLE1_NAMES)
@pytest.mark.parametrize("epsilon", EPSILONS)
def test_ablation_approx_skyline(
    time_cells, figure_report, bench_json, name, epsilon
):
    graph = dataset(name)
    label = f"approx(eps={epsilon})"
    (timing,) = time_cells(
        {label: lambda: approx_skyline(graph, epsilon)}, ROUNDS
    ).values()
    result = timing.result
    bench_json(
        timing.entry(bench="ablation_approx", instance=name, algorithm=label)
    )

    if epsilon == 0.0:
        assert result.skyline == filter_refine_sky(graph).skyline

    report = figure_report(
        "Ablation approx",
        "ε-approximate skyline: size vs relaxation",
        ("dataset", "ε", "|R_ε|", "|R_ε|/n", "time (s)"),
    )
    n = graph.num_vertices
    report.add_row(name, epsilon, result.size, result.size / n, timing.min_s)
    report.add_note(
        "ε = 0 equals the exact skyline (checked in-test); the size "
        "typically shrinks as domination is relaxed (tie-break flips "
        "can locally re-admit vertices — see core/approx.py)."
    )
