"""Table II (Exp-7) — scalability of MC-BRB vs NeiSkyMC on LiveJournal.

The paper's Table II shows NeiSkyMC within a few percent of MC-BRB
(1,055,273 vs 1,063,380 μs at 100 %) — near-parity, with the skyline
version marginally ahead.  At laptop scale the skyline computation does
not amortize against millisecond clique searches, so the report carries
three columns: MC-BRB, NeiSkyMC end-to-end (the production
``neisky_mc(graph)``, which computes the skyline with
``neighborhood_skyline`` first, as the paper's timing includes it), and
the NeiSkyMC search alone with that skyline precomputed — the last is
the apples-to-apples search comparison.

Each cell is the fastest of :data:`ROUNDS` calls on the same graph (the
median is recorded alongside), and lands in ``BENCH_skyline.json`` as a
``bench="table2_mcc"`` row.
"""

import pytest

from _datasets import SCALING_FRACTIONS, scalability_instance
from repro.clique import mc_brb, neisky_mc
from repro.core import neighborhood_skyline

#: Timed calls per cell; the table reports the fastest.
ROUNDS = 5


@pytest.mark.parametrize("axis", ("n", "rho"))
@pytest.mark.parametrize("fraction", SCALING_FRACTIONS)
def test_table2_mcc(time_cells, figure_report, bench_json, axis, fraction):
    graph = scalability_instance(axis, fraction)
    skyline = neighborhood_skyline(graph).skyline
    times = time_cells(
        {
            "MC-BRB": lambda: mc_brb(graph),
            "NeiSkyMC e2e": lambda: neisky_mc(graph),
            "NeiSkyMC search": lambda: neisky_mc(graph, skyline=skyline),
        },
        ROUNDS,
    )
    omegas = {len(t.result) for t in times.values()}
    assert len(omegas) == 1, "solvers disagree on omega"
    for label, timing in times.items():
        bench_json(
            timing.entry(
                bench="table2_mcc",
                instance=f"livejournal_sim:{axis}={fraction}",
                algorithm=label,
                extra={"omega": len(timing.result)},
            )
        )
    report = figure_report(
        "Table 2",
        "Scalability of maximum clique search on livejournal_sim "
        f"(fastest of {ROUNDS} calls)",
        ("axis", "fraction") + tuple(f"{c} (ms)" for c in times) + ("omega",),
    )
    report.add_row(
        axis,
        fraction,
        *(1e3 * t.min_s for t in times.values()),
        omegas.pop(),
    )
    if len(report.rows) == 2 * len(SCALING_FRACTIONS):
        search = [r[4] / r[2] for r in report.rows]
        e2e = [r[3] / r[2] for r in report.rows]
        report.add_note(
            "expected shape: both solvers grow with n; the search "
            "columns are near parity (paper Table II shows <=6% "
            "differences); the end-to-end column carries the "
            "skyline cost, which amortizes only at paper scale."
        )
        report.add_note(
            f"measured: NeiSkyMC search / MC-BRB = {min(search):.2f}-"
            f"{max(search):.2f}x, end to end {min(e2e):.1f}-{max(e2e):.1f}x."
        )
