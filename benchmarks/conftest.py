"""Benchmark-suite plumbing: timed cells, figure reports and rendering.

Benchmark modules time a report row's cells with the :func:`time_cells`
fixture, record its rows with :func:`bench_json` and create one
:class:`~repro.harness.runner.FigureReport` each via the
:func:`figure_report` fixture factory; at the end of the session every
populated report is written to ``benchmarks/reports/`` and echoed into
the terminal summary, so a full ``pytest benchmarks/ --benchmark-only``
run regenerates the paper's tables and figures as text artifacts.
"""

from __future__ import annotations

import os
import sys

import pytest

# Make the shared dataset module importable as a plain module when
# pytest adds this directory to sys.path (rootdir-relative runs).
sys.path.insert(0, os.path.dirname(__file__))

from repro.harness.benchjson import (  # noqa: E402
    BENCH_FILENAME,
    write_bench_json,
)
from repro.harness.runner import FigureReport, time_rounds  # noqa: E402

_REPORTS: dict[str, FigureReport] = {}
_BENCH_ENTRIES: list[dict] = []
REPORT_DIR = os.path.join(os.path.dirname(__file__), "reports")
BENCH_JSON_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    BENCH_FILENAME,
)


@pytest.fixture(scope="session")
def figure_report():
    """Factory: get-or-create the session-wide report for an artifact."""

    def get(artifact: str, title: str, headers) -> FigureReport:
        if artifact not in _REPORTS:
            _REPORTS[artifact] = FigureReport(
                artifact=artifact, title=title, headers=headers
            )
        return _REPORTS[artifact]

    return get


@pytest.fixture
def time_cells(benchmark):
    """Time one report row: ``{label: cell}`` to ``{label: CellTiming}``.

    Each cell runs ``rounds`` times through
    :func:`~repro.harness.runner.time_rounds`.  A cell is a callable, or
    an ``(fn, setup)`` pair whose ``setup`` value ``fn`` gets fresh each
    round.  pytest-benchmark records the whole row as one round.
    """

    def run(cells: dict, rounds: int) -> dict:
        def row():
            timings = {}
            for label, cell in cells.items():
                fn, setup = cell if isinstance(cell, tuple) else (cell, None)
                timings[label] = time_rounds(fn, rounds, setup=setup)
            return timings

        return benchmark.pedantic(row, rounds=1, iterations=1)

    return run


@pytest.fixture(scope="session")
def bench_json():
    """Collector for machine-readable measurements.

    Benchmark modules append :func:`repro.harness.benchjson.bench_entry`
    records; the session summary merge-writes them into
    ``BENCH_skyline.json`` at the repository root.
    """

    def add(entry: dict) -> None:
        _BENCH_ENTRIES.append(entry)

    return add


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _BENCH_ENTRIES:
        write_bench_json(BENCH_JSON_PATH, _BENCH_ENTRIES)
        terminalreporter.write_line(
            f"[{len(_BENCH_ENTRIES)} benchmark entries merged into "
            f"{BENCH_JSON_PATH}]"
        )
        _BENCH_ENTRIES.clear()
    populated = [r for r in _REPORTS.values() if r.rows]
    if not populated:
        return
    terminalreporter.section("paper artifact reports")
    for report in sorted(populated, key=lambda r: r.artifact):
        path = report.write(REPORT_DIR)
        terminalreporter.write(report.render())
        terminalreporter.write_line(f"[written to {path}]")
        terminalreporter.write_line("")
