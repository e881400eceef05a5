"""Fig. 3 (Exp-1) — runtime of the skyline algorithms.

Paper shape to reproduce: FilterRefineSky is the fastest (or tied with
BaseCSet — see the note below), BaseSky is 4–35× slower, Base2Hop pays
heavily for materializing the 2-hop lists, LC-Join sits in between.

Note recorded with the report: the paper's FilterRefineSky-vs-BaseCSet
gap comes from word-level bitset constants that a Python interpreter
flattens (both algorithms enumerate the same (v, w) incidences); the
pairs with *asymptotic* differences — FilterRefineSky vs BaseSky and vs
Base2Hop — reproduce cleanly.

Each cell is the fastest of :data:`ROUNDS` calls on the same graph
(the median is recorded alongside): one cold call per cell could not
resolve FilterRefineSky against BaseSky on ``dblp_sim``.

Every row also lands in ``BENCH_skyline.json`` (via the ``bench_json``
fixture) with the algorithm's work counters; for the filter+refine
family the refine-phase time (wall minus the dataset's fastest
filter-phase time) is recorded alongside.
"""

import statistics
import time

import pytest

from _datasets import dataset
from repro.core import (
    SkylineCounters,
    base_cset_sky,
    base_sky,
    base_two_hop_sky,
    filter_refine_sky,
    lc_join_sky,
)
from repro.core.filter_phase import filter_phase
from repro.harness.benchjson import bench_entry
from repro.workloads import TABLE1_NAMES

ALGORITHMS = (
    ("LC-Join", lc_join_sky),
    ("BaseSky", base_sky),
    ("Base2Hop", base_two_hop_sky),
    ("BaseCSet", base_cset_sky),
    ("FilterRefineSky", filter_refine_sky),
)

#: Timed calls per cell; the table reports the fastest.
ROUNDS = 5

_RESULTS: dict[str, dict[str, float]] = {}
_FILTER_TIMES: dict[str, float] = {}


def _filter_time(name, graph) -> float:
    if name not in _FILTER_TIMES:
        walls = []
        for _ in range(ROUNDS):
            start = time.perf_counter()
            filter_phase(graph)
            walls.append(time.perf_counter() - start)
        _FILTER_TIMES[name] = min(walls)
    return _FILTER_TIMES[name]


@pytest.mark.parametrize("name", TABLE1_NAMES)
@pytest.mark.parametrize("algo_name,algo", ALGORITHMS, ids=[a for a, _ in ALGORITHMS])
def test_fig3_runtime(benchmark, figure_report, bench_json, name, algo_name, algo):
    graph = dataset(name)
    walls = []

    def timed():
        start = time.perf_counter()
        out = algo(graph)
        walls.append(time.perf_counter() - start)
        return out

    result = benchmark.pedantic(timed, rounds=ROUNDS, iterations=1)
    elapsed = min(walls)
    _RESULTS.setdefault(name, {})[algo_name] = elapsed
    benchmark.extra_info["skyline_size"] = result.size

    counters = SkylineCounters()
    algo(graph, counters=counters)
    refine_s = None
    if algo_name == "FilterRefineSky":
        refine_s = max(elapsed - _filter_time(name, graph), 0.0)
    bench_json(
        bench_entry(
            bench="fig3_runtime",
            instance=name,
            algorithm=algo_name,
            wall_s=elapsed,
            refine_s=refine_s,
            counters=counters.as_dict(),
            extra={
                "skyline_size": result.size,
                "rounds": len(walls),
                "median_s": statistics.median(walls),
                **counters.extra,
            },
        )
    )

    per_dataset = _RESULTS[name]
    if len(per_dataset) == len(ALGORITHMS):
        report = figure_report(
            "Figure 3",
            "Runtime (s) of neighborhood skyline computation algorithms "
            f"(fastest of {ROUNDS} calls)",
            ("dataset",) + tuple(a for a, _ in ALGORITHMS) + ("BaseSky/FRS",),
        )
        report.add_row(
            name,
            *(per_dataset[a] for a, _ in ALGORITHMS),
            per_dataset["BaseSky"] / per_dataset["FilterRefineSky"],
        )
        if len(_RESULTS) == len(TABLE1_NAMES):
            report.add_note(
                "expected shape: FilterRefineSky ≈ BaseCSet fastest; "
                "BaseSky and Base2Hop several times slower (paper: 4-35x "
                "for BaseSky); the paper's FRS-vs-CSet constant-factor gap "
                "is a bitset effect that the Python interpreter flattens."
            )
