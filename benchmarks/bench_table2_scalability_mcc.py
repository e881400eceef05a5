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

import statistics
import time

import pytest

from _datasets import SCALING_FRACTIONS, scalability_instance
from repro.clique import mc_brb, neisky_mc
from repro.core import neighborhood_skyline
from repro.harness.benchjson import bench_entry

#: Timed calls per cell; the table reports the fastest.
ROUNDS = 5

_RESULTS: dict[tuple[str, float], dict[str, float]] = {}
_COLUMNS = ("MC-BRB", "NeiSkyMC e2e", "NeiSkyMC search")


def _solver(label, graph):
    if label == "MC-BRB":
        return lambda: mc_brb(graph)
    if label == "NeiSkyMC e2e":
        return lambda: neisky_mc(graph)
    skyline = neighborhood_skyline(graph).skyline
    return lambda: neisky_mc(graph, skyline=skyline)


@pytest.mark.parametrize("axis", ("n", "rho"))
@pytest.mark.parametrize("fraction", SCALING_FRACTIONS)
@pytest.mark.parametrize("label", _COLUMNS)
def test_table2_mcc(benchmark, figure_report, bench_json, axis, fraction, label):
    graph = scalability_instance(axis, fraction)
    run = _solver(label, graph)
    walls = []

    def timed():
        start = time.perf_counter()
        out = run()
        walls.append(time.perf_counter() - start)
        return out

    clique = benchmark.pedantic(timed, rounds=ROUNDS, iterations=1)
    elapsed = min(walls)
    bench_json(
        bench_entry(
            bench="table2_mcc",
            instance=f"livejournal_sim:{axis}={fraction}",
            algorithm=label,
            wall_s=elapsed,
            extra={
                "omega": len(clique),
                "rounds": len(walls),
                "median_s": statistics.median(walls),
            },
        )
    )

    row = _RESULTS.setdefault((axis, fraction), {})
    row[label] = elapsed
    row[label + "_omega"] = len(clique)
    if not all(c in row for c in _COLUMNS):
        return
    omegas = {row[c + "_omega"] for c in _COLUMNS}
    assert len(omegas) == 1, "solvers disagree on omega"
    report = figure_report(
        "Table 2",
        "Scalability of maximum clique search on livejournal_sim "
        f"(fastest of {ROUNDS} calls)",
        ("axis", "fraction") + tuple(f"{c} (ms)" for c in _COLUMNS) + ("omega",),
    )
    report.add_row(
        axis,
        fraction,
        *(1e3 * row[c] for c in _COLUMNS),
        int(row["MC-BRB_omega"]),
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
