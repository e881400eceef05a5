"""Before/after benchmark for the vectorized filter and refine phases.

For each instance (default: ``kron_large``) this runs two legs on the
same graph.

Filter leg (``bench="filter_vector"``):

* ``scalar_filter_phase`` — the paper's Alg. 2 as a scalar loop: the
  **before** row and the reference the vectorized pass is pinned to;
* ``filter_phase`` — the **after** row (the production pass).

Refine leg (``bench="refine_vector"``), the skyline computed two ways:

* ``filter_refine`` — the paper's sequential bloom Alg. 3: the
  **before** row and the ground truth the block kernel is pinned to;
* ``filter_refine_block`` — the **after** row (the ``auto`` default).

Both refine rows run with ``SkylineCounters`` on.  The block kernel
takes the same path with or without them and tallies only values it
computes anyway, so its counted row is also its uncounted cost.

Each after result is asserted bit-for-bit equal to its before result
(candidates and dominator for the filter; skyline, dominator and
candidates for the skyline) *before* any timing row is recorded, so a
speedup number can never paper over a wrong answer.  Refine-phase wall
time is the end-to-end wall minus the separately timed filter pass the
algorithm runs (bloom Alg. 3 runs the scalar filter, the block kernel
the vectorized one).

Rows go into ``BENCH_skyline.json`` at the repo root (merge-write,
same as every other harness script); the after rows carry the measured
``filter_speedup`` / ``refine_speedup`` and the counters.  On the
default ``kron_large`` instance the run **fails** unless the block
kernel's refine phase is at least ``MIN_SPEEDUP``× faster than the
before row, and the vectorized filter at least ``MIN_FILTER_SPEEDUP``×
faster than the scalar one.

Usage::

    PYTHONPATH=src python benchmarks/bench_refine_vector.py [dataset ...]
"""

from __future__ import annotations

import os
import sys
import time

from repro.core.block_refine import filter_refine_block_sky
from repro.core.counters import SkylineCounters
from repro.core.filter_phase import filter_phase, scalar_filter_phase
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

#: Acceptance floor for the filter-phase speedup on the default
#: instances.  Three runs on kron_large (2-vCPU x86-64 VM, Python 3.11,
#: numpy 2.4, counters on) measured 3.2x, 3.3x and 3.4x.
MIN_FILTER_SPEEDUP = 2.0

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _assert_identical(result, ref, name: str, kernel: str) -> None:
    assert result.skyline == ref.skyline, f"{name}: {kernel} skyline"
    assert result.dominator == ref.dominator, f"{name}: {kernel} dominator"
    assert result.candidates == ref.candidates, (
        f"{name}: {kernel} candidates"
    )


def _timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


def run_filter_leg(
    graph, name: str, enforce_speedup: bool
) -> tuple[float, float, list[dict]]:
    """Scalar vs vectorized filter, asserted identical; returns both
    wall times and the two rows."""
    c_scalar, c_vector = SkylineCounters(), SkylineCounters()
    scalar, t_scalar = _timed(
        lambda: scalar_filter_phase(graph, counters=c_scalar)
    )
    vector, t_vector = _timed(lambda: filter_phase(graph, counters=c_vector))
    assert vector[0] == scalar[0], f"{name}: filter candidates"
    assert vector[1] == scalar[1], f"{name}: filter dominator"
    speedup = t_scalar / max(t_vector, 1e-9)
    print(
        f"{name}: filter scalar {t_scalar:.2f}s vector {t_vector:.2f}s "
        f"=> {speedup:.1f}x; |C|={len(scalar[0])}, candidates and "
        "dominator bit-for-bit identical"
    )
    if enforce_speedup:
        assert speedup >= MIN_FILTER_SPEEDUP, (
            f"{name}: vector filter speedup {speedup:.2f}x is below the "
            f"{MIN_FILTER_SPEEDUP}x acceptance floor"
        )
    common = {
        "num_vertices": graph.num_vertices,
        "num_edges": graph.num_edges,
        "candidate_size": len(scalar[0]),
    }
    rows = [
        bench_entry(
            bench="filter_vector",
            instance=name,
            algorithm="scalar_filter_phase",
            wall_s=t_scalar,
            counters=c_scalar.as_dict(),
            extra={**common, "variant": "before"},
        ),
        bench_entry(
            bench="filter_vector",
            instance=name,
            algorithm="filter_phase",
            wall_s=t_vector,
            counters=c_vector.as_dict(),
            extra={
                **common,
                "variant": "after",
                "filter_speedup": round(speedup, 2),
            },
        ),
    ]
    return t_scalar, t_vector, rows


def run_one(name: str, enforce_speedup: bool) -> list[dict]:
    graph = load(name)
    t_filter_before, t_filter_after, filter_rows = run_filter_leg(
        graph, name, enforce_speedup
    )

    before_counters, after_counters = SkylineCounters(), SkylineCounters()
    ref, t_before = _timed(
        lambda: filter_refine_sky(graph, counters=before_counters)
    )
    after, t_after = _timed(
        lambda: filter_refine_block_sky(graph, counters=after_counters)
    )
    _assert_identical(after, ref, name, "block")

    refine_before = max(t_before - t_filter_before, 1e-9)
    refine_after = max(t_after - t_filter_after, 1e-9)
    speedup = refine_before / refine_after

    print(
        f"{name}: n={graph.num_vertices} m={graph.num_edges} "
        f"|C|={len(ref.candidates)} |R|={len(ref.skyline)} "
        f"refine before {refine_before:.2f}s (bloom) after "
        f"{refine_after:.2f}s => {speedup:.1f}x; "
        f"{after_counters.pair_tests} block pair tests; "
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
    }
    return filter_rows + [
        bench_entry(
            bench="refine_vector",
            instance=name,
            algorithm="FilterRefineSky",
            wall_s=t_before,
            counters=before_counters.as_dict(),
            extra={
                **common,
                "variant": "before",
                "filter_s": round(t_filter_before, 3),
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
                "filter_s": round(t_filter_after, 3),
                "refine_s": round(refine_after, 3),
                "refine_speedup": round(speedup, 2),
            },
        ),
    ]


def main(argv) -> int:
    instances = tuple(argv) or DEFAULT_INSTANCES
    entries = []
    for name in instances:
        # The speedup floors are acceptance gates for the large tier;
        # explicitly requested small instances still record their rows
        # (the vector kernels are not expected to win at toy sizes).
        entries.extend(run_one(name, name in DEFAULT_INSTANCES))
    path = os.path.join(REPO_ROOT, BENCH_FILENAME)
    write_bench_json(path, entries)
    print(f"merged {len(entries)} entries into {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
