"""Before/after benchmark for the batched marginal-gain plane.

For each instance (default: ``kron_large``) this builds a fixed seeded
candidate pool and runs group-closeness maximization at ``k = 16`` three
ways on the same graph:

* **eager scalar** (``gain_batch=1``) — the reference driver every
  other leg is pinned to;
* **lazy scalar** — the CELF engine with the scalar kernel: the
  **before** row the speedup is measured against;
* **lazy batched** (``gain_batch="auto"``) — the **after** row.

Every leg is asserted bit-for-bit equal (group, per-round gains, and
the CELF ``evaluations + evaluations_saved == eager.evaluations``
invariant) *before* any timing row is recorded, so a speedup number
can never paper over a wrong answer.  On the default instance the run
**fails** unless the batched lazy engine beats the scalar lazy engine
by at least ``MIN_SPEEDUP``×.

Rows go into ``BENCH_skyline.json`` at the repo root (merge-write,
same as every other harness script), and the merged document is schema
checked with :func:`repro.harness.benchjson.validate_file` before the
run reports success.

Usage::

    PYTHONPATH=src python benchmarks/bench_greedy_vector.py [dataset ...]
"""

from __future__ import annotations

import os
import random
import sys
import time

from repro.centrality.greedy import greedy_maximize
from repro.centrality.group_closeness_max import ClosenessObjective
from repro.centrality.lazy_greedy import lazy_greedy_maximize
from repro.core.counters import SkylineCounters
from repro.harness.benchjson import (
    BENCH_FILENAME,
    bench_entry,
    validate_file,
    write_bench_json,
)
from repro.workloads import load

DEFAULT_INSTANCES = ("kron_large",)

GREEDY_K = 16
POOL_SIZE = 192
POOL_SEED = 9

#: Acceptance floor for the batched-vs-scalar lazy speedup on the
#: default instances; override per-run with ``REPRO_MIN_GREEDY_SPEEDUP``.
MIN_SPEEDUP = float(os.environ.get("REPRO_MIN_GREEDY_SPEEDUP", "2.0"))

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def _assert_same_selection(name, label, result, ref) -> None:
    assert result.group == ref.group, (name, label, "group")
    assert result.gains == ref.gains, (name, label, "gains")
    assert result.pool_size == ref.pool_size, (name, label, "pool_size")


def run_greedy_one(name: str, enforce_speedup: bool) -> list[dict]:
    graph = load(name)
    n = graph.num_vertices
    k = min(GREEDY_K, n)
    pool = random.Random(POOL_SEED).sample(range(n), min(POOL_SIZE, n))
    objective = ClosenessObjective(graph)

    t_eager, eager = _timed(
        lambda: greedy_maximize(
            graph, k, objective, candidates=pool, gain_batch=1
        )
    )
    t_scalar, scalar = _timed(
        lambda: lazy_greedy_maximize(
            graph, k, objective, candidates=pool, gain_batch=1
        )
    )
    counters = SkylineCounters()
    t_batched, batched = _timed(
        lambda: lazy_greedy_maximize(
            graph,
            k,
            objective,
            candidates=pool,
            gain_batch="auto",
            counters=counters,
        )
    )

    # Correctness gates before any timing row is recorded.
    _assert_same_selection(name, "lazy-scalar", scalar, eager)
    _assert_same_selection(name, "lazy-batched", batched, eager)
    for label, lazy in (
        ("lazy-scalar", scalar),
        ("lazy-batched", batched),
    ):
        assert (
            lazy.evaluations + lazy.evaluations_saved == eager.evaluations
        ), (name, label, "CELF counter invariant")
    assert batched.evaluations == scalar.evaluations, name

    speedup = t_scalar / max(t_batched, 1e-9)
    extra_counters = counters.extra
    print(
        f"{name}: n={n} m={graph.num_edges} k={k} |pool|={len(pool)} "
        f"eager {t_eager:.2f}s lazy-scalar {t_scalar:.2f}s "
        f"lazy-batched {t_batched:.2f}s "
        f"(B={extra_counters.get('gain_batch')}) => {speedup:.1f}x; "
        "all selections bit-for-bit identical to the scalar eager run"
    )
    if enforce_speedup:
        assert speedup >= MIN_SPEEDUP, (
            f"{name}: batched round-loop speedup {speedup:.2f}x is below "
            f"the {MIN_SPEEDUP}x acceptance floor"
        )

    common = {
        "num_vertices": n,
        "num_edges": graph.num_edges,
        "k": k,
        "pool_size": len(pool),
    }
    return [
        bench_entry(
            bench="greedy_vector",
            instance=name,
            algorithm=f"BaseGC-eager-scalar(k={k})",
            wall_s=t_eager,
            extra={**common, "variant": "reference",
                   "evaluations": eager.evaluations},
        ),
        bench_entry(
            bench="greedy_vector",
            instance=name,
            algorithm=f"BaseGC-lazy-scalar(k={k})",
            wall_s=t_scalar,
            extra={
                **common,
                "variant": "before",
                "evaluations": scalar.evaluations,
                "evaluations_saved": scalar.evaluations_saved,
            },
        ),
        bench_entry(
            bench="greedy_vector",
            instance=name,
            algorithm=f"BaseGC-lazy-batched(k={k})",
            wall_s=t_batched,
            extra={
                **common,
                "variant": "after",
                "evaluations": batched.evaluations,
                "evaluations_saved": batched.evaluations_saved,
                "speedup_vs_scalar": round(speedup, 2),
                "gain_batch": extra_counters.get("gain_batch"),
                "batch_rounds": extra_counters.get("batch_rounds"),
                "lanes_evaluated": extra_counters.get("lanes_evaluated"),
                "lanes_short_circuited": extra_counters.get(
                    "lanes_short_circuited"
                ),
            },
        ),
    ]


def main(argv) -> int:
    instances = tuple(argv) or DEFAULT_INSTANCES
    entries = []
    for name in instances:
        # The speedup floor is an acceptance gate for the large tier;
        # explicitly requested small instances still record their rows
        # (batched lanes are not expected to win at toy sizes).
        entries.extend(run_greedy_one(name, name in DEFAULT_INSTANCES))
    path = os.path.join(REPO_ROOT, BENCH_FILENAME)
    write_bench_json(path, entries)
    problems = validate_file(path)
    assert not problems, problems
    print(f"merged {len(entries)} entries into {path} (schema OK)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
