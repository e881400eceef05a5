"""Before/after benchmark for the block-vectorized refine kernel.

For each instance (default: ``kron_large``) this computes the skyline
two ways on the same graph:

* ``filter_refine`` — the paper's sequential bloom Alg. 3: the
  **before** row and the ground truth the block kernel is pinned to;
* ``filter_refine_block`` — the **after** row (the ``auto`` default).

The block result is asserted bit-for-bit equal (skyline, dominator,
candidates) to the bloom baseline *before* any timing row is recorded,
so a speedup number can never paper over a wrong answer.  Refine-phase
wall time is the end-to-end wall minus a separately timed filter phase
(both algorithms run the identical filter pass).

Rows go into ``BENCH_skyline.json`` at the repo root as
``bench="refine_vector"`` entries (merge-write, same as every other
harness script); the ``after`` row carries the measured
``refine_speedup`` and the block kernel's counters.  On the default
``kron_large`` instance the run **fails** unless the block kernel's
refine phase is at least ``MIN_SPEEDUP``× faster than the before row.

Usage::

    PYTHONPATH=src python benchmarks/bench_refine_vector.py [dataset ...]
"""

from __future__ import annotations

import os
import sys
import time

from repro.core.block_refine import filter_refine_block_sky
from repro.core.counters import SkylineCounters
from repro.core.filter_phase import filter_phase
from repro.core.filter_refine import filter_refine_sky
from repro.harness.benchjson import (
    BENCH_FILENAME,
    bench_entry,
    write_bench_json,
)
from repro.workloads import load

DEFAULT_INSTANCES = ("kron_large",)

#: Acceptance floor for the refine-phase speedup on the default
#: instances; override per-run with ``REPRO_MIN_REFINE_SPEEDUP``.
MIN_SPEEDUP = float(os.environ.get("REPRO_MIN_REFINE_SPEEDUP", "2.0"))

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _assert_identical(result, ref, name: str, kernel: str) -> None:
    assert result.skyline == ref.skyline, f"{name}: {kernel} skyline"
    assert result.dominator == ref.dominator, f"{name}: {kernel} dominator"
    assert result.candidates == ref.candidates, (
        f"{name}: {kernel} candidates"
    )


def run_one(name: str, enforce_speedup: bool) -> list[dict]:
    graph = load(name)

    t0 = time.perf_counter()
    filter_phase(graph)
    t_filter = time.perf_counter() - t0

    before_counters = SkylineCounters()
    t0 = time.perf_counter()
    ref = filter_refine_sky(graph, counters=before_counters)
    t_before = time.perf_counter() - t0

    after_counters = SkylineCounters()
    t0 = time.perf_counter()
    after = filter_refine_block_sky(graph, counters=after_counters)
    t_after = time.perf_counter() - t0
    _assert_identical(after, ref, name, "block")

    refine_before = max(t_before - t_filter, 1e-9)
    refine_after = max(t_after - t_filter, 1e-9)
    speedup = refine_before / refine_after
    rejects = after_counters.extra.get("core_pretest_rejects", 0)

    print(
        f"{name}: n={graph.num_vertices} m={graph.num_edges} "
        f"|C|={len(ref.candidates)} |R|={len(ref.skyline)} "
        f"filter {t_filter:.2f}s refine before {refine_before:.2f}s "
        f"(bloom) after {refine_after:.2f}s "
        f"=> {speedup:.1f}x; core pretest rejected {rejects} entries; "
        "all outputs bit-for-bit identical to sequential bloom"
    )
    if enforce_speedup:
        assert speedup >= MIN_SPEEDUP, (
            f"{name}: block refine speedup {speedup:.2f}x is below the "
            f"{MIN_SPEEDUP}x acceptance floor"
        )

    common = {
        "num_vertices": graph.num_vertices,
        "num_edges": graph.num_edges,
        "skyline_size": len(ref.skyline),
        "candidate_size": len(ref.candidates),
        "filter_s": round(t_filter, 3),
    }
    return [
        bench_entry(
            bench="refine_vector",
            instance=name,
            algorithm="FilterRefineSky",
            wall_s=t_before,
            counters=before_counters.as_dict(),
            extra={
                **common,
                "variant": "before",
                "refine_s": round(refine_before, 3),
                "refine_path": "bloom",
            },
        ),
        bench_entry(
            bench="refine_vector",
            instance=name,
            algorithm="FilterRefineSkyBlock",
            wall_s=t_after,
            counters=after_counters.as_dict(),
            extra={
                **common,
                "variant": "after",
                "refine_s": round(refine_after, 3),
                "refine_speedup": round(speedup, 2),
                "core_pretest_rejects": rejects,
            },
        ),
    ]


def main(argv) -> int:
    instances = tuple(argv) or DEFAULT_INSTANCES
    entries = []
    for name in instances:
        # The speedup floor is an acceptance gate for the large tier;
        # explicitly requested small instances still record their rows
        # (the block kernel is not expected to win at toy sizes).
        entries.extend(run_one(name, name in DEFAULT_INSTANCES))
    path = os.path.join(REPO_ROOT, BENCH_FILENAME)
    write_bench_json(path, entries)
    print(f"merged {len(entries)} entries into {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
