"""Measurement harness: memory probes, bench rows and report rendering."""

from repro.harness.benchjson import (
    bench_entry,
    load_bench_json,
    merge_entries,
    write_bench_json,
)
from repro.harness.memory import format_bytes, measure_peak
from repro.harness.runner import FigureReport
from repro.harness.table import format_table

__all__ = [
    "bench_entry",
    "load_bench_json",
    "merge_entries",
    "write_bench_json",
    "format_bytes",
    "measure_peak",
    "FigureReport",
    "format_table",
]
