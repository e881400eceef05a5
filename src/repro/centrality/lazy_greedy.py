"""Lazy-greedy (CELF) driver for group-centrality maximization.

Same contract as :func:`repro.centrality.greedy.greedy_maximize` — same
group, same gains, same tie-breaks, bit for bit — with four stacked
optimizations.  It is the default schedule of every group-closeness and
group-harmonic entry point; the eager driver stays as the reference
it is tested against.  Its kernels fold only the two objectives that
carry a ``csr_kernel`` tag (closeness and harmonic); any other
objective is rejected with a :class:`~repro.errors.ParameterError`
that points at ``strategy="eager"``.

1. **Lazy evaluation.**  Marginal gains along the greedy chain are
   non-increasing for both bundled objectives (see
   ``docs/algorithms.md``), so a gain computed in an earlier round is an
   *upper bound* on the candidate's current gain.  The driver keeps a
   max-heap of ``(-gain, vertex, round_tag)`` entries; each round it
   pops the top, re-evaluates it if the tag is stale, pushes it back,
   and stops as soon as the top entry is fresh — every candidate left in
   the heap is bounded above by the winner's exact gain, so it cannot
   win, and most are never re-evaluated at all.  Tie-breaks survive
   because the heap orders equal gains by ascending vertex ID, which is
   exactly the eager scan's first-strict-maximum rule.

2. **CSR kernels.**  Evaluations run on a
   :class:`~repro.paths.csr.CSRTraversal` — truncated BFS over the
   graph's own neighbour tuples with preallocated scratch reused across
   the whole run — instead of the per-call generator machinery of
   :func:`~repro.paths.csr.improvements`.  The scalar scan works on the
   driver's distance list itself (``n`` for unreachable): it lowers the
   vertices it reaches in place and restores them in the sweep that
   folds the gain.

3. **Vector kernels.**  Round 0, scored against an empty group, runs
   on the bitset multi-source BFS of
   :meth:`~repro.paths.csr.CSRTraversal.first_round_gains` (64 sources
   per machine word).  Every later scan — each stale pop of the CELF
   drain, a heap-dry rebuild, the winner's update list — runs on
   :meth:`~repro.paths.csr.CSRTraversal.adaptive_eval`: the scalar
   pruned scan under an edge-visit budget, handed to the vector scan
   only when it runs past the budget.  After round 0 most scans touch
   only the few vertices the candidate would move closer, so they
   finish scalar; the large ones (million-edge graphs) go vectorized.
   Each stale pop is scored exactly once, gains only; nothing is scored
   speculatively.  Every kernel returns the scalar kernel's gains bit
   for bit, so the heap evolves exactly as a scalar drain's would.
   Kernel use is visible in ``counters.extra``: ``batch_rounds``
   (vectorized dispatches: bitset chunks plus hand-offs),
   ``lanes_evaluated`` (gain scans, equal to ``evaluations``) and
   ``lanes_short_circuited`` (always 0, kept for readers of the
   counter).

4. **Round-0 memo.**  A round-0 gain is the candidate's own closeness
   or harmonic sum: a property of the graph, the same for every ``k``,
   pool and repeat.  Graphs are immutable, so the driver keeps these
   gains on the graph object (``Graph._round0``: one float64 array of
   length ``n`` per ``(csr_kernel, penalty)``, NaN while unscored), and
   round 0 runs the bitset kernel only on the scope's unscored
   vertices.  It fills a copy and publishes it with one assignment, so
   an exception inside the kernel (a deadline, a fault) leaves the memo
   as it was and another thread never reads a half-written array.  The
   eager driver never reads it.  A memo hit shows only as fewer
   ``batch_rounds``.

``evaluations`` counts the gain evaluations of the lazy schedule, round
0 charged ``len(scope)`` whether its gains came from the kernel or the
memo, so it is the same on a first and a repeated call;
``evaluations_saved`` is the eager schedule's count over the same pool
minus that, so ``evaluations + evaluations_saved`` always equals the
eager driver's ``evaluations`` for the same inputs.  (The one uncounted
traversal per round: scans ship gains only, so the winner's update list
is re-derived — eager already charged that candidate's evaluation.
After the bitset round 0 it is the winner's BFS distance vector.)
"""

from __future__ import annotations

import heapq
from typing import Iterable, Optional

import numpy as _np

from repro.centrality.greedy import (
    GainObjective,
    GreedyResult,
    candidate_pool,
    greedy_maximize,
)
from repro.core.deadline import check as check_deadline
from repro.errors import ParameterError
from repro.graph.adjacency import Graph
from repro.paths.csr import CSRTraversal, bfs_distances

__all__ = ["lazy_greedy_maximize", "run_greedy"]

#: Stale pops of the CELF drain between two deadline checks.  A pop
#: costs one gain scan (about 0.04 ms on average in the first drains of
#: ``base_gc(barabasi_albert(3000, 4, seed=1), k)``, where one drain
#: re-scores about 1,000 candidates), so a served query stops within a
#: few milliseconds of its deadline instead of after the whole drain.
DRAIN_CHECK_INTERVAL = 32


def _empty_group_gains(graph, trav, scope, objective) -> list[float]:
    """Round-0 gains of ``scope``, through the graph's round-0 memo.

    Only the vertices the memo has not scored yet run the bitset
    kernel.  The filled-in array replaces the old one in a single
    assignment, so a deadline or fault inside the kernel leaves the
    memo as it was, and a reader never sees a half-written array.
    """
    if graph._round0 is None:
        graph._round0 = {}
    memo = graph._round0
    key = (objective.csr_kernel, getattr(objective, "penalty", None))
    known = memo.get(key)
    if known is None:
        known = _np.full(graph.num_vertices, _np.nan)
    scope_nd = _np.asarray(scope, dtype=_np.int64)
    missing = scope_nd[_np.isnan(known[scope_nd])]
    if missing.size:
        filled = known.copy()
        filled[missing] = trav.first_round_gains(missing.tolist(), objective)
        memo[key] = known = filled
    return known[scope_nd].tolist()


def lazy_greedy_maximize(
    graph: Graph,
    k: int,
    objective: GainObjective,
    *,
    candidates: Optional[Iterable[int]] = None,
    counters=None,
) -> GreedyResult:
    """CELF-style greedy maximization; output equals ``greedy_maximize``.

    ``objective`` must be tagged ``csr_kernel = "closeness"`` or
    ``"harmonic"``.  ``counters`` is an optional
    :class:`~repro.core.counters.SkylineCounters` for the kernel
    telemetry (``batch_rounds`` / ``lanes_evaluated`` /
    ``lanes_short_circuited`` in ``counters.extra``; see the module
    docstring).
    """
    if k < 0:
        raise ParameterError(f"group size k must be >= 0, got {k}")
    if getattr(objective, "csr_kernel", None) not in ("closeness", "harmonic"):
        raise ParameterError(
            f"objective {objective.name!r} has no lazy gain kernel; "
            'run it with strategy="eager"'
        )
    n = graph.num_vertices
    k = min(k, n)
    pool = candidate_pool(candidates, n)

    in_group = bytearray(n)
    dist = [n] * n  # d(v, S); n = infinity (the scalar scan's sentinel)
    group: list[int] = []
    gains: list[float] = []
    evaluations = 0
    eager_evaluations = 0  # what the eager schedule would have spent
    trav = CSRTraversal(graph)
    # The vector kernels index the committed distances as an int32
    # ndarray (-1 = infinity), kept in step with `dist` at every commit.
    dist_nd = _np.full(n, -1, dtype=_np.int32)

    def evaluate(u: int, collect: bool):
        return trav.adaptive_eval(u, dist, dist_nd, objective, collect)

    #: CELF heap of (-cached_gain, vertex, round_tag); each not-yet-
    #: chosen candidate appears exactly once.  A tag older than the
    #: current round marks the cached gain as a stale upper bound.
    heap: list[tuple[float, int, int]] = []

    for round_no in range(k):
        check_deadline()
        if not heap:
            # (Re)build: first round, or the pool ran dry last round —
            # mirror the eager driver's fallback to all of V \ S.
            scope = [u for u in pool if not in_group[u]]
            if not scope:
                scope = [u for u in range(n) if not in_group[u]]
                if not scope:
                    break
            eager_evaluations += len(scope)
            evaluations += len(scope)
            # With nothing committed yet every scan is a plain BFS: a
            # property of the graph, memoized on it per objective.
            if not group:
                gain_vec = _empty_group_gains(graph, trav, scope, objective)
            else:
                gain_vec = [evaluate(u, False)[0] for u in scope]
            # max() keeps the first maximum: the eager smallest-ID
            # tie-break.
            best_idx = max(range(len(scope)), key=gain_vec.__getitem__)
            best_u = scope[best_idx]
            best_gain = gain_vec[best_idx]
            heap = [
                (-gain, u, round_no)
                for i, (u, gain) in enumerate(zip(scope, gain_vec))
                if i != best_idx
            ]
            heapq.heapify(heap)
        else:
            # CELF: pop/re-score/re-push until the top is fresh.  Each
            # stale pop is scored exactly once, gains only.
            eager_evaluations += len(heap)
            stale = 0
            while True:
                neg_gain, u, tag = heapq.heappop(heap)
                if tag == round_no:
                    best_u = u
                    best_gain = -neg_gain
                    break
                stale += 1
                if stale % DRAIN_CHECK_INTERVAL == 0:
                    check_deadline()
                evaluations += 1
                gain, _none = evaluate(u, False)
                heapq.heappush(heap, (-gain, u, round_no))

        if not group:
            # Against an empty group the winner improves every vertex it
            # reaches to its BFS distance, so its full BFS is the commit.
            dist_nd[:] = bfs_distances(graph, best_u)
            dist = _np.where(dist_nd < 0, n, dist_nd).tolist()
        else:
            # Scans ship gains only; re-derive the winner's update list
            # (uncounted: this candidate's evaluation was charged above).
            _gain, best_updates = evaluate(best_u, True)
            for v, new in best_updates:
                dist[v] = new
                dist_nd[v] = new
        in_group[best_u] = 1
        group.append(best_u)
        gains.append(best_gain)

    if counters is not None:
        extra = counters.extra
        extra["batch_rounds"] = (
            extra.get("batch_rounds", 0) + trav.vector_dispatches
        )
        # Every gain scan is a charged evaluation: nothing is scored
        # speculatively, so no lane is ever short-circuited.
        extra["lanes_evaluated"] = (
            extra.get("lanes_evaluated", 0) + evaluations
        )
        extra.setdefault("lanes_short_circuited", 0)
    return GreedyResult(
        group=tuple(group),
        gains=tuple(gains),
        evaluations=evaluations,
        pool_size=len(pool),
        objective=objective.name,
        evaluations_saved=eager_evaluations - evaluations,
        strategy="lazy",
    )


def run_greedy(
    graph: Graph,
    k: int,
    objective: GainObjective,
    *,
    candidates: Optional[Iterable[int]] = None,
    strategy: str = "lazy",
    counters=None,
) -> GreedyResult:
    """Strategy dispatcher shared by the Base*/NeiSky* entry points.

    ``strategy="lazy"`` (the default) runs the CELF engine;
    ``"eager"`` runs the scalar reference driver (identical output, and
    the ``evaluations`` count of the paper's Example 2; ``counters``
    receives only the lazy engine's kernel telemetry).
    """
    if strategy == "eager":
        return greedy_maximize(graph, k, objective, candidates=candidates)
    if strategy != "lazy":
        raise ParameterError(
            f"unknown greedy strategy {strategy!r}; choose 'eager' or 'lazy'"
        )
    return lazy_greedy_maximize(
        graph, k, objective, candidates=candidates, counters=counters
    )
