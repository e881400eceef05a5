"""Before/after benchmark for the greedy's vector gain kernels.

For each instance (default: ``kron_large``) this builds a fixed seeded
candidate pool and runs group-closeness maximization at ``k = 16`` four
ways on the same graph:

* **eager scalar** — the reference driver every other leg is pinned to;
* **lazy scalar** — the CELF engine confined to the scalar kernels by
  an in-script patch (:func:`scalar_kernels`: round 0 scored one scalar
  scan per source, no adaptive scan handed off): the **before** row the
  speedup is measured against;
* **lazy batched** (the row's historical name) — the default CELF
  engine (bitset round 0, adaptive scans handed to the vector scan past
  their edge budget): the **after** row;
* **lazy warm** — a second default call on the graph object the
  *after* leg ran on, so round 0 is read from the graph's round-0 memo.

The lazy engine memoizes each vertex's empty-group gain on the graph
object, so the scalar and *after* legs each run on their own zero-copy
graph object (:func:`_datasets.cold_copy`): both time a cold round 0.
Every leg goes through :func:`~repro.harness.runner.time_rounds`.

Every leg is asserted bit-for-bit equal (group, per-round gains, and
the CELF ``evaluations + evaluations_saved == eager.evaluations``
invariant) *before* any timing row is recorded, so a speedup number
can never paper over a wrong answer.  On the default instance the run
**fails** unless the default lazy engine beats the scalar lazy engine
by at least ``MIN_SPEEDUP``×.

Rows go into ``BENCH_skyline.json`` at the repo root (merge-write,
same as every other harness script), and the merged document is schema
checked with :func:`repro.harness.benchjson.validate_file` before the
run reports success.

Usage::

    PYTHONPATH=src python benchmarks/bench_greedy_vector.py [dataset ...]
"""

from __future__ import annotations

import contextlib
import os
import random
import sys
from unittest import mock

from _datasets import cold_copy
from repro.centrality.greedy import greedy_maximize
from repro.centrality.group_closeness_max import ClosenessObjective
from repro.centrality.lazy_greedy import lazy_greedy_maximize
from repro.core.counters import SkylineCounters
from repro.harness.benchjson import (
    BENCH_FILENAME,
    validate_file,
    write_bench_json,
)
from repro.harness.runner import time_rounds
from repro.paths import csr
from repro.paths.csr import CSRTraversal
from repro.workloads import load

DEFAULT_INSTANCES = ("kron_large",)

GREEDY_K = 16
POOL_SIZE = 192
POOL_SEED = 9

#: Timed calls per leg: one, since the eager reference alone takes over
#: a minute on kron_large, and the warm leg must follow one after call.
ROUNDS = 1

#: Acceptance floor for the default-vs-scalar lazy speedup on the
#: default instances; override per-run with ``REPRO_MIN_GREEDY_SPEEDUP``.
MIN_SPEEDUP = float(os.environ.get("REPRO_MIN_GREEDY_SPEEDUP", "2.0"))

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@contextlib.contextmanager
def scalar_kernels():
    """Confine the lazy driver to the scalar kernels for the "before"
    leg: round 0 scores one scalar scan per source, and the edge budget
    is ``sys.maxsize``, so no adaptive scan is handed to the vector
    scan."""

    def scalar_first_round(self, sources, objective):
        empty = [self.n] * self.n  # the scalar scan's "unreachable"
        return [
            self.adaptive_eval(s, empty, None, objective)[0]
            for s in sources
        ]

    with mock.patch.object(
        CSRTraversal, "first_round_gains", scalar_first_round
    ), mock.patch.object(csr, "SCAN_EDGE_BUDGET", sys.maxsize):
        yield


def _scalar_lazy(*args, **kwargs):
    with scalar_kernels():
        return lazy_greedy_maximize(*args, **kwargs)


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

    t_eager = time_rounds(
        lambda: greedy_maximize(graph, k, objective, candidates=pool), ROUNDS
    )
    t_scalar = time_rounds(
        lambda g: _scalar_lazy(g, k, objective, candidates=pool),
        ROUNDS,
        setup=lambda: cold_copy(graph),
    )
    default_graph = cold_copy(graph)

    def default_lazy(c):
        return lambda: lazy_greedy_maximize(
            default_graph, k, objective, candidates=pool, counters=c
        )

    counters, warm_counters = SkylineCounters(), SkylineCounters()
    t_batched = time_rounds(default_lazy(counters), ROUNDS)
    # The warm leg repeats the after leg on the same graph object.
    t_warm = time_rounds(default_lazy(warm_counters), ROUNDS)
    eager, scalar = t_eager.result, t_scalar.result
    batched, warm = t_batched.result, t_warm.result

    # Correctness gates before any timing row is recorded.
    _assert_same_selection(name, "lazy-scalar", scalar, eager)
    _assert_same_selection(name, "lazy-batched", batched, eager)
    _assert_same_selection(name, "lazy-warm", warm, eager)
    for label, lazy in (
        ("lazy-scalar", scalar),
        ("lazy-batched", batched),
        ("lazy-warm", warm),
    ):
        assert (
            lazy.evaluations + lazy.evaluations_saved == eager.evaluations
        ), (name, label, "CELF counter invariant")
    assert batched.evaluations == scalar.evaluations == warm.evaluations, name

    speedup = t_scalar.min_s / max(t_batched.min_s, 1e-9)
    extra_counters = counters.extra
    print(
        f"{name}: n={n} m={graph.num_edges} k={k} |pool|={len(pool)} "
        f"eager {t_eager.min_s:.2f}s lazy-scalar {t_scalar.min_s:.2f}s "
        f"lazy-batched {t_batched.min_s:.2f}s => {speedup:.1f}x; "
        f"lazy-warm {t_warm.min_s:.2f}s; "
        "all selections bit-for-bit identical to the scalar eager run"
    )
    if enforce_speedup:
        assert speedup >= MIN_SPEEDUP, (
            f"{name}: vector-kernel lazy speedup {speedup:.2f}x is below "
            f"the {MIN_SPEEDUP}x acceptance floor"
        )

    common = {
        "num_vertices": n,
        "num_edges": graph.num_edges,
        "k": k,
        "pool_size": len(pool),
    }
    return [
        t_eager.entry(
            bench="greedy_vector",
            instance=name,
            algorithm=f"BaseGC-eager-scalar(k={k})",
            extra={**common, "variant": "reference",
                   "evaluations": eager.evaluations},
        ),
        t_scalar.entry(
            bench="greedy_vector",
            instance=name,
            algorithm=f"BaseGC-lazy-scalar(k={k})",
            extra={
                **common,
                "variant": "before",
                "evaluations": scalar.evaluations,
                "evaluations_saved": scalar.evaluations_saved,
            },
        ),
        t_batched.entry(
            bench="greedy_vector",
            instance=name,
            algorithm=f"BaseGC-lazy-batched(k={k})",
            extra={
                **common,
                "variant": "after",
                "evaluations": batched.evaluations,
                "evaluations_saved": batched.evaluations_saved,
                "speedup_vs_scalar": round(speedup, 2),
                "batch_rounds": extra_counters.get("batch_rounds"),
                "lanes_evaluated": extra_counters.get("lanes_evaluated"),
                "lanes_short_circuited": extra_counters.get(
                    "lanes_short_circuited"
                ),
            },
        ),
        t_warm.entry(
            bench="greedy_vector",
            instance=name,
            algorithm=f"BaseGC-lazy-warm(k={k})",
            extra={
                **common,
                "variant": "warm",
                "evaluations": warm.evaluations,
                "evaluations_saved": warm.evaluations_saved,
                "batch_rounds": warm_counters.extra.get("batch_rounds"),
            },
        ),
    ]


def main(argv) -> int:
    instances = tuple(argv) or DEFAULT_INSTANCES
    entries = []
    for name in instances:
        # The speedup floor is an acceptance gate for the large tier;
        # explicitly requested small instances still record their rows
        # (the vector kernels are not expected to win at toy sizes).
        entries.extend(run_greedy_one(name, name in DEFAULT_INSTANCES))
    path = os.path.join(REPO_ROOT, BENCH_FILENAME)
    write_bench_json(path, entries)
    problems = validate_file(path)
    assert not problems, problems
    print(f"merged {len(entries)} entries into {path} (schema OK)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
