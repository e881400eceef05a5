"""Fig. 10 (Exp-7) — scalability of BaseSky vs FilterRefineSky.

LiveJournal stand-in subsampled along two axes: vertex fraction ``n``
and edge fraction ``ρ``, at 20–100 %.  Expected shape: FilterRefineSky
grows smoothly and stays fastest; BaseSky grows more sharply.  The
production kernel (``FilterRefineSkyBlock``, the ``"auto"`` default)
rides along as a third column; all three return the same skyline
(asserted).  Each cell is the fastest of :data:`ROUNDS` calls and lands
in ``BENCH_skyline.json`` as a ``bench="fig10_scalability"`` row.
"""

import pytest

from _datasets import (
    SCALING_FRACTIONS,
    SKYLINE_ALGORITHMS,
    scalability_instance,
)

#: Timed calls per cell; the table reports the fastest.
ROUNDS = 3

COLUMNS = ("BaseSky", "FilterRefineSky", "FilterRefineSkyBlock")


@pytest.mark.parametrize("axis", ("n", "rho"))
@pytest.mark.parametrize("fraction", SCALING_FRACTIONS)
def test_fig10_scalability(
    time_cells, figure_report, bench_json, axis, fraction
):
    graph = scalability_instance(axis, fraction)
    algos = dict(SKYLINE_ALGORITHMS)
    times = time_cells(
        {label: (lambda a=algos[label]: a(graph)) for label in COLUMNS}, ROUNDS
    )
    skylines = {times[label].result.skyline for label in COLUMNS}
    assert len(skylines) == 1, f"{axis}={fraction}: skylines differ"
    for label in COLUMNS:
        bench_json(
            times[label].entry(
                bench="fig10_scalability",
                instance=f"livejournal_sim:{axis}={fraction}",
                algorithm=label,
            )
        )
    walls = [times[label].min_s for label in COLUMNS]
    figure_report(
        "Figure 10",
        "Scalability of skyline computation on livejournal_sim "
        f"(fastest of {ROUNDS} calls)",
        ("axis", "fraction") + tuple(f"{c} (s)" for c in COLUMNS) + ("ratio",),
    ).add_row(axis, fraction, *walls, walls[0] / walls[1])
