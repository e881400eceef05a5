"""CI smoke check for the lazy (CELF) group-centrality engine.

Plain script (no pytest) so CI can run it in seconds on tiny registry
instances: runs BaseGC/NeiSkyGC and BaseGH under the eager reference
driver and the default lazy engine (bitset round 0 and adaptive vector
scans, on every graph size), asserts the results bit-for-bit identical
(group, gains, pool size), checks the counter invariant ``lazy.evaluations +
lazy.evaluations_saved == eager.evaluations``, and records the wall
times into ``BENCH_skyline.json`` at the repo root (merge-write:
entries from full benchmark runs are preserved).  The merged document
is schema checked with :func:`repro.harness.benchjson.validate_file`,
and the whole run must finish inside ``REPRO_SMOKE_GREEDY_BUDGET``
seconds (default 120) so a perf regression in the smoke tier fails CI
instead of quietly stretching it.

Each lazy run gets its own graph object (:func:`_datasets.cold_copy`):
the lazy engine memoizes round-0 gains on the graph, so NeiSkyGC-lazy
after BaseGC-lazy on one object would time memo hits.

Exit status is non-zero on any mismatch, so the CI step fails loudly.

Usage::

    PYTHONPATH=src python benchmarks/smoke_greedy.py [dataset ...]
"""

from __future__ import annotations

import os
import sys
import time

from _datasets import cold_copy
from repro.centrality import base_gc, base_gh, neisky_gc
from repro.harness.benchjson import (
    BENCH_FILENAME,
    bench_entry,
    validate_file,
    write_bench_json,
)
from repro.workloads import load

DEFAULT_INSTANCES = ("karate", "bombing_proxy")
SMOKE_K = 6

#: Wall-time budget for the whole smoke run, in seconds.
WALL_BUDGET = float(os.environ.get("REPRO_SMOKE_GREEDY_BUDGET", "120"))

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def _check_pair(name, label, eager, lazy):
    assert lazy.group == eager.group, (name, label)
    assert lazy.gains == eager.gains, (name, label)
    assert lazy.pool_size == eager.pool_size, (name, label)
    assert (
        lazy.evaluations + lazy.evaluations_saved == eager.evaluations
    ), (name, label)


def run(instances) -> list[dict]:
    entries = []
    for name in instances:
        graph = load(name)
        saved_note = ""
        for label, runner in (
            ("BaseGC", base_gc),
            ("NeiSkyGC", neisky_gc),
            ("BaseGH", base_gh),
        ):
            t_eager, eager = _timed(
                lambda r=runner: r(graph, SMOKE_K, strategy="eager")
            )
            cold = cold_copy(graph)
            t_lazy, lazy = _timed(
                lambda r=runner: r(cold, SMOKE_K, strategy="lazy")
            )
            _check_pair(name, label, eager, lazy)
            entries.append(
                bench_entry(
                    bench="smoke_greedy",
                    instance=name,
                    algorithm=f"{label}-eager(k={SMOKE_K})",
                    wall_s=t_eager,
                    extra={"evaluations": eager.evaluations},
                )
            )
            entries.append(
                bench_entry(
                    bench="smoke_greedy",
                    instance=name,
                    algorithm=f"{label}-lazy(k={SMOKE_K})",
                    wall_s=t_lazy,
                    extra={
                        "evaluations": lazy.evaluations,
                        "evaluations_saved": lazy.evaluations_saved,
                    },
                )
            )
            if label == "BaseGC":
                saved_note = (
                    f"lazy saved {lazy.evaluations_saved} of "
                    f"{eager.evaluations} BaseGC evaluations"
                )

        print(
            f"{name}: k={SMOKE_K} eager/lazy groups identical; "
            + saved_note
        )
    return entries


def main(argv) -> int:
    start = time.perf_counter()
    instances = tuple(argv) or DEFAULT_INSTANCES
    entries = run(instances)
    path = os.path.join(REPO_ROOT, BENCH_FILENAME)
    write_bench_json(path, entries)
    problems = validate_file(path)
    assert not problems, problems
    wall = time.perf_counter() - start
    assert wall <= WALL_BUDGET, (
        f"smoke run took {wall:.1f}s, over the {WALL_BUDGET:.0f}s budget"
    )
    print(
        f"merged {len(entries)} entries into {path} (schema OK, "
        f"{wall:.1f}s of {WALL_BUDGET:.0f}s budget)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
