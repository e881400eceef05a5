"""Cell timing and report collection for the figure/table benchmarks.

Each benchmark module reproduces one paper artifact (a figure or a
table).  Every timed cell goes through :func:`time_rounds`, whose
:class:`CellTiming` turns into one ``BENCH_skyline.json`` row.  A
:class:`FigureReport` accumulates rows as the parametrized benchmark
tests run; ``benchmarks/conftest.py`` renders every populated report at
the end of the session and writes it under ``benchmarks/reports/``, so
a full ``pytest benchmarks/ --benchmark-only`` run leaves one text file
per paper artifact.
"""

from __future__ import annotations

import os
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from repro.errors import ParameterError
from repro.harness.benchjson import bench_entry
from repro.harness.table import format_table

__all__ = ["CellTiming", "FigureReport", "time_rounds"]


@dataclass(frozen=True)
class CellTiming:
    """The wall time of every round of one cell, and the last result."""

    walls: tuple
    result: Any = field(compare=False)

    @property
    def min_s(self) -> float:
        return min(self.walls)

    @property
    def median_s(self) -> float:
        return statistics.median(self.walls)

    @property
    def iqr_s(self) -> float:
        """Interquartile range (inclusive quartiles; 0 for one round)."""
        if len(self.walls) < 2:
            return 0.0
        q1, _, q3 = statistics.quantiles(self.walls, n=4, method="inclusive")
        return q3 - q1

    def entry(
        self,
        *,
        bench: str,
        instance: str,
        algorithm: str,
        refine_s: Optional[float] = None,
        counters: Optional[dict] = None,
        extra: Optional[dict] = None,
    ) -> dict:
        """The cell as a schema-v1 row: ``wall_s`` is the minimum, and
        ``rounds``, ``median_s`` and ``iqr_s`` ride in ``extra``."""
        return bench_entry(
            bench=bench,
            instance=instance,
            algorithm=algorithm,
            wall_s=self.min_s,
            refine_s=refine_s,
            counters=counters,
            extra={
                **(extra or {}),
                "rounds": len(self.walls),
                "median_s": self.median_s,
                "iqr_s": self.iqr_s,
            },
        )


def time_rounds(
    fn: Callable,
    rounds: int,
    *,
    setup: Optional[Callable] = None,
    clock: Callable[[], float] = time.perf_counter,
) -> CellTiming:
    """Call ``fn`` ``rounds`` times and time each call alone.

    ``setup``, when given, runs before every round outside the clock,
    and its return value is passed to ``fn`` (a lazy greedy leg builds
    a fresh graph object there, so each round times a cold round 0).
    """
    if rounds < 1:
        raise ParameterError(f"rounds must be >= 1, got {rounds}")
    walls = []
    result = None
    for _ in range(rounds):
        args = () if setup is None else (setup(),)
        start = clock()
        result = fn(*args)
        walls.append(clock() - start)
    return CellTiming(tuple(walls), result)


@dataclass
class FigureReport:
    """Accumulates rows for one paper figure/table and renders them."""

    artifact: str  # e.g. "Figure 3"
    title: str
    headers: Sequence[str]
    rows: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def add_row(self, *cells: Any) -> None:
        """Append one result row (cells follow ``headers`` order)."""
        self.rows.append(list(cells))

    def add_note(self, note: str) -> None:
        """Append a free-text note rendered under the table.

        Idempotent: benchmarks add their note from whichever
        parametrized test happens to complete a row last, which can
        fire more than once.
        """
        if note not in self.notes:
            self.notes.append(note)

    def render(self) -> str:
        """The complete report as text."""
        header = f"== {self.artifact}: {self.title} =="
        body = format_table(self.headers, self.rows)
        parts = [header, body]
        if self.notes:
            parts.append("")
            parts.extend(f"note: {note}" for note in self.notes)
        return "\n".join(parts) + "\n"

    def write(self, directory: str) -> str:
        """Write the rendered report into ``directory``; returns the path."""
        os.makedirs(directory, exist_ok=True)
        slug = (
            self.artifact.lower().replace(" ", "_").replace("/", "-")
        )
        path = os.path.join(directory, f"{slug}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.render())
        return path
