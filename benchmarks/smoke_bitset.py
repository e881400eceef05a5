"""CI smoke check for the packed-bitset refine kernel.

Plain script (no pytest) so CI can run it in seconds on tiny registry
instances: computes the skyline with the bloom baseline, the bitset
kernel and the forced bloom-fallback (``word_budget=1``), asserts every
result bit-for-bit equal,
and records the wall times into ``BENCH_skyline.json`` at the repo root
(merge-write: entries from full benchmark runs are preserved).

Exit status is non-zero on any mismatch, so the CI step fails loudly.

Usage::

    PYTHONPATH=src python benchmarks/smoke_bitset.py [dataset ...]
"""

from __future__ import annotations

import os
import sys
import time

from repro.core.bitset_refine import filter_refine_bitset_sky
from repro.core.counters import SkylineCounters
from repro.core.filter_refine import filter_refine_sky
from repro.harness.benchjson import (
    BENCH_FILENAME,
    bench_entry,
    write_bench_json,
)
from repro.workloads import load

DEFAULT_INSTANCES = ("karate", "bombing_proxy")

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def run(instances) -> list[dict]:
    entries = []
    for name in instances:
        graph = load(name)
        t_bloom, ref = _timed(lambda: filter_refine_sky(graph))

        counters = SkylineCounters()
        t_bit, bit = _timed(
            lambda: filter_refine_bitset_sky(graph, counters=counters)
        )
        assert bit.skyline == ref.skyline, name
        assert bit.dominator == ref.dominator, name
        path = counters.extra.get("refine_path")

        _, fb = _timed(
            lambda: filter_refine_bitset_sky(graph, word_budget=1)
        )
        assert fb.dominator == ref.dominator, name

        entries.append(
            bench_entry(
                bench="smoke_bitset",
                instance=name,
                algorithm="FilterRefineSky",
                wall_s=t_bloom,
            )
        )
        entries.append(
            bench_entry(
                bench="smoke_bitset",
                instance=name,
                algorithm="FilterRefineSkyBitset",
                wall_s=t_bit,
                counters=counters.as_dict(),
                extra={"refine_path": path},
            )
        )
        print(
            f"{name}: |R|={len(ref.skyline)} bloom {t_bloom:.4f}s "
            f"bitset {t_bit:.4f}s ({path}); fallback output identical"
        )
    return entries


def main(argv) -> int:
    instances = tuple(argv) or DEFAULT_INSTANCES
    entries = run(instances)
    path = os.path.join(REPO_ROOT, BENCH_FILENAME)
    write_bench_json(path, entries)
    print(f"merged {len(entries)} entries into {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
