"""Fig. 4 (Exp-2) — peak memory of the skyline algorithms.

Measured with :func:`repro.harness.memory.measure_peak` (tracemalloc):
the interpreter baseline and the input graph are excluded, so what's
compared is exactly each algorithm's working set.  Paper shape:
Base2Hop largest (materialized 2-hop lists + filters for all of V);
LC-Join carries a duplicated graph as its inverted index;
FilterRefineSky adds ``|C|`` bloom filters; BaseSky/BaseCSet hold only
linear arrays.  The production kernel (``FilterRefineSkyBlock``, the
``"auto"`` default) rides along as a sixth column.
"""

import pytest

from _datasets import SKYLINE_ALGORITHMS, dataset
from repro.harness.memory import measure_peak
from repro.workloads import TABLE1_NAMES


@pytest.mark.parametrize("name", TABLE1_NAMES)
def test_fig4_memory(benchmark, figure_report, name):
    graph = dataset(name)

    def run_all():
        return {
            label: measure_peak(algo, graph)[1] / (1024.0 * 1024.0)
            for label, algo in SKYLINE_ALGORITHMS
        }

    peaks = benchmark.pedantic(run_all, rounds=1, iterations=1)
    report = figure_report(
        "Figure 4",
        "Peak traced memory (MB) of skyline computation algorithms",
        ("dataset",) + tuple(peaks),
    )
    report.add_row(name, *peaks.values())
    if len(report.rows) == len(TABLE1_NAMES):
        report.add_note(
            "expected shape: Base2Hop largest; LC-Join duplicates the "
            "graph in its inverted index; BaseSky/BaseCSet smallest; "
            "FilterRefineSky in between (|C| bloom filters)."
        )
