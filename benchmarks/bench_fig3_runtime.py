"""Fig. 3 (Exp-1) — runtime of the skyline algorithms.

Paper shape to reproduce: FilterRefineSky is the fastest (or tied with
BaseCSet — see the note below), BaseSky is 4–35× slower, Base2Hop pays
heavily for materializing the 2-hop lists, LC-Join sits in between.

Note recorded with the report: the paper's FilterRefineSky-vs-BaseCSet
gap comes from word-level bitset constants that a Python interpreter
flattens (both algorithms enumerate the same (v, w) incidences); the
pairs with *asymptotic* differences — FilterRefineSky vs BaseSky and vs
Base2Hop — reproduce cleanly.

FilterRefineSky is the paper's bloom Alg. 3.  The production kernel
(``filter_refine_block``, the ``"auto"`` default) is a sixth column,
``FilterRefineSkyBlock``.  The bench asserts that all six columns
return the same skyline and that the production column is the fastest
on every stand-in.

Each cell is the fastest of :data:`ROUNDS` calls on the same graph
(the median is recorded alongside): one cold call per cell could not
resolve FilterRefineSky against BaseSky on ``dblp_sim``.

Every cell also lands in ``BENCH_skyline.json`` (via the ``bench_json``
fixture) with the algorithm's work counters.  For the two filter+refine
columns, ``refine_s`` is the wall minus the fastest time of the filter
pass that algorithm runs: the scalar Alg. 2 loop for bloom Alg. 3, the
vectorized pass for the block kernel.
"""

import pytest

from _datasets import SKYLINE_ALGORITHMS, dataset
from repro.core import SkylineCounters
from repro.core.filter_phase import filter_phase, scalar_filter_phase
from repro.harness.runner import time_rounds
from repro.workloads import TABLE1_NAMES

BENCH = "fig3_runtime"

#: Timed calls per cell; the table reports the fastest.
ROUNDS = 5

#: The filter pass each filter+refine column runs.
FILTERS = {
    "FilterRefineSky": scalar_filter_phase,
    "FilterRefineSkyBlock": filter_phase,
}

LABELS = tuple(label for label, _ in SKYLINE_ALGORITHMS)


@pytest.mark.parametrize("name", TABLE1_NAMES)
def test_fig3_runtime(time_cells, figure_report, bench_json, name):
    graph = dataset(name)
    times = time_cells(
        {label: (lambda a=a: a(graph)) for label, a in SKYLINE_ALGORITHMS},
        ROUNDS,
    )
    skyline = times["FilterRefineSky"].result.skyline
    for label, algo in SKYLINE_ALGORITHMS:
        timing = times[label]
        assert timing.result.skyline == skyline, f"{name}: {label} skyline"
        refine_s = None
        if label in FILTERS:
            filter_s = time_rounds(lambda: FILTERS[label](graph), ROUNDS).min_s
            refine_s = max(timing.min_s - filter_s, 0.0)
        counters = SkylineCounters()
        algo(graph, counters=counters)
        bench_json(
            timing.entry(
                bench=BENCH,
                instance=name,
                algorithm=label,
                refine_s=refine_s,
                counters=counters.as_dict(),
                extra={"skyline_size": timing.result.size, **counters.extra},
            )
        )
    walls = {label: times[label].min_s for label in LABELS}
    assert min(walls, key=walls.get) == "FilterRefineSkyBlock", (
        f"{name}: the production kernel is not the fastest: {walls}"
    )

    report = figure_report(
        "Figure 3",
        "Runtime (s) of neighborhood skyline computation algorithms "
        f"(fastest of {ROUNDS} calls)",
        ("dataset",) + LABELS + ("BaseSky/FRS",),
    )
    report.add_row(
        name,
        *walls.values(),
        walls["BaseSky"] / walls["FilterRefineSky"],
    )
    if len(report.rows) == len(TABLE1_NAMES):
        block = [r[6] / r[5] for r in report.rows]
        base = [r[2] / r[6] for r in report.rows]
        report.add_note(
            "expected shape: FilterRefineSky ≈ BaseCSet fastest; "
            "BaseSky and Base2Hop several times slower (paper: 4-35x "
            "for BaseSky); the paper's FRS-vs-CSet constant-factor gap "
            "is a bitset effect that the Python interpreter flattens."
        )
        report.add_note(
            "FilterRefineSkyBlock is the production kernel (auto); "
            "all six columns return the same skyline and the production "
            "column is the fastest on every stand-in (asserted)."
        )
        report.add_note(
            f"measured: FilterRefineSkyBlock / FilterRefineSky = "
            f"{min(block):.3f}-{max(block):.3f}x, BaseSky / "
            f"FilterRefineSkyBlock = {min(base):.0f}-{max(base):.0f}x."
        )
