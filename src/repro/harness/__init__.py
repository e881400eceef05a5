"""Measurement harness: cell timer, memory probes, bench rows and reports."""

from repro.harness.benchjson import (
    bench_entry,
    load_bench_json,
    merge_entries,
    write_bench_json,
)
from repro.harness.memory import format_bytes, measure_peak
from repro.harness.runner import CellTiming, FigureReport, time_rounds
from repro.harness.table import format_table

__all__ = [
    "bench_entry",
    "load_bench_json",
    "merge_entries",
    "write_bench_json",
    "format_bytes",
    "measure_peak",
    "CellTiming",
    "FigureReport",
    "time_rounds",
    "format_table",
]
