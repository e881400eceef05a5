"""Lazy-greedy (CELF) driver for group-centrality maximization.

Same contract as :func:`repro.centrality.greedy.greedy_maximize` — same
group, same gains, same tie-breaks, bit for bit — with three stacked
optimizations.  It is the default schedule of every group-closeness and
group-harmonic entry point; the eager driver stays as the reference
it is tested against.

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
   :class:`~repro.paths.csr.CSRTraversal` — flat-array truncated BFS
   with preallocated scratch reused across the whole run — instead of
   the per-call generator machinery of :mod:`repro.paths.truncated`.

3. **Batched lanes** (``gain_batch``).  Evaluations run ``B`` sources
   per vectorized kernel pass (:meth:`~repro.paths.csr.CSRTraversal.
   _batch_scan`) instead of one Python-level BFS per call.  Round 0,
   scored against an empty group, runs on the bitset multi-source BFS
   of :meth:`~repro.paths.csr.CSRTraversal.first_round_gains` (64
   sources per machine word); the CELF drain batches
   *speculatively*: when a stale pop needs a re-score, the kernel also
   scores the next ``B-1`` stale heap entries (the likeliest next pops)
   into a round-local cache, and each later stale pop is served from
   that cache.  The heap itself is driven by the exact scalar pop/push
   sequence — stale bounds are never replaced speculatively, and
   ``evaluations`` is charged per *consumed* pop only — so selections,
   gains, ``evaluations`` and ``evaluations_saved`` are bit-for-bit
   identical for every batch size.  Speculative work is visible in
   ``counters.extra``: ``batch_rounds`` (kernel dispatches),
   ``lanes_evaluated`` (total lanes scored) and
   ``lanes_short_circuited`` (speculative lanes the drain never
   consumed — wasted, bounded by ``B-1`` per round).

``evaluations`` counts gain evaluations actually performed;
``evaluations_saved`` is the eager schedule's count over the same pool
minus that, so ``evaluations + evaluations_saved`` always equals the
eager driver's ``evaluations`` for the same inputs.  (The one uncounted
traversal per round: batched scans ship gains only, so the winner's
update list is re-derived — eager already charged that candidate's
evaluation.  After round 0 it is the winner's BFS distance vector.)
"""

from __future__ import annotations

import heapq
from typing import Iterable, Optional

import numpy as _np

from repro.centrality.greedy import GainObjective, GreedyResult, greedy_maximize
from repro.errors import ParameterError
from repro.graph.adjacency import Graph
from repro.paths.csr import (
    CSRTraversal,
    make_batch_evaluator,
    make_evaluator,
    resolve_gain_batch,
)

__all__ = ["lazy_greedy_maximize", "run_greedy"]


def lazy_greedy_maximize(
    graph: Graph,
    k: int,
    objective: GainObjective,
    *,
    candidates: Optional[Iterable[int]] = None,
    counters=None,
    gain_batch="auto",
) -> GreedyResult:
    """CELF-style greedy maximization; output equals ``greedy_maximize``.

    Parameters beyond the eager driver's:

    counters:
        Optional :class:`~repro.core.counters.SkylineCounters` for the
        batch telemetry (see ``gain_batch``).
    gain_batch:
        Marginal-gain lanes per batched kernel call (``"auto"``, the
        default, sizes from ``n`` and the pool;
        :func:`~repro.paths.csr.resolve_gain_batch`).  Purely an
        execution knob: the batched drain replays the scalar CELF
        pop/push sequence exactly, so the group, gains, tie-breaks,
        ``evaluations`` and ``evaluations_saved`` are identical for
        every value.  Batch telemetry lands in ``counters.extra``
        (``gain_batch`` / ``batch_rounds`` / ``lanes_evaluated`` /
        ``lanes_short_circuited``).
    """
    if k < 0:
        raise ParameterError(f"group size k must be >= 0, got {k}")
    n = graph.num_vertices
    k = min(k, n)
    if candidates is None:
        pool = list(range(n))
    else:
        pool = sorted(set(candidates))
        for u in pool:
            if not (0 <= u < n):
                raise ParameterError(f"candidate {u} out of range")

    in_group = bytearray(n)
    dist = [-1] * n  # d(v, S); -1 = infinity while S is empty
    group: list[int] = []
    gains: list[float] = []
    evaluations = 0
    eager_evaluations = 0  # what the eager schedule would have spent
    trav = CSRTraversal.from_graph(graph)
    evaluate = make_evaluator(trav, objective)
    batch = resolve_gain_batch(gain_batch, n, len(pool))
    batch_evaluate = (
        make_batch_evaluator(trav, objective) if batch > 1 else None
    )
    if batch_evaluate is None:
        batch = 1
    # The batched kernel indexes the committed distances vectorized, so
    # the batch path maintains an int32 ndarray mirror of `dist` (the
    # scalar kernels keep the list: per-element list access is faster
    # for the one-off winner re-derivations).
    dist_nd = _np.full(n, -1, dtype=_np.int32) if batch > 1 else None
    batch_rounds = 0
    lanes_evaluated = 0
    lanes_short_circuited = 0
    #: CELF heap of (-cached_gain, vertex, round_tag); each not-yet-
    #: chosen candidate appears exactly once.  A tag older than the
    #: current round marks the cached gain as a stale upper bound.
    heap: list[tuple[float, int, int]] = []

    for round_no in range(k):
        best_updates: Optional[list[tuple[int, int]]] = None
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
            if batch > 1:
                # Batched scope scan: gains only; the winner's update
                # list is re-derived below (uncounted).  max() keeps the
                # first maximum: the eager smallest-ID tie-break.  With
                # nothing committed yet every scan is a plain BFS, which
                # the bitset round-0 kernel runs 64 sources per word.
                if not group:
                    gain_vec = trav.first_round_gains(scope, objective)
                    batch_rounds += 1
                else:
                    gain_vec = []
                    for lo in range(0, len(scope), batch):
                        lane = scope[lo : lo + batch]
                        gain_vec.extend(
                            g for g, _none in batch_evaluate(
                                lane, dist_nd, False
                            )
                        )
                        batch_rounds += 1
                lanes_evaluated += len(scope)
                best_idx = max(
                    range(len(scope)), key=gain_vec.__getitem__
                )
                entries = list(zip(scope, gain_vec))
            else:
                best_idx = -1
                best_gain = float("-inf")
                entries = []
                for u in scope:
                    gain, updates = evaluate(u, dist, True)
                    if gain > best_gain:
                        best_gain = gain
                        best_idx = len(entries)
                        best_updates = updates
                    entries.append((u, gain))
            best_u, best_gain = entries[best_idx]
            heap = [
                (-gain, u, round_no)
                for i, (u, gain) in enumerate(entries)
                if i != best_idx
            ]
            heapq.heapify(heap)
        elif batch > 1:
            # Batched CELF drain.  The heap evolution below is the
            # scalar drain's, verbatim: stale bounds are popped in the
            # same order, re-scored values pushed back one at a time,
            # and `evaluations` charged per consumed pop.  The batching
            # is purely speculative — a cache miss scores the popped
            # candidate *plus* the next B-1 stale uncached heap entries
            # (the likeliest next pops) in one kernel pass, and later
            # pops are served from the round-local cache.  Gains cached
            # mid-round stay valid because `dist` only changes at the
            # commit, after the drain.  Lanes ship gains only
            # (collect=False) — update lists for speculative lanes
            # would be wasted materialization — so the winner's updates
            # are re-derived below, like the batched round 0's.
            eager_evaluations += len(heap)
            round_cache: dict[int, float] = {}
            while True:
                neg_gain, u, tag = heapq.heappop(heap)
                if tag == round_no:
                    best_u = u
                    best_gain = -neg_gain
                    break
                gain = round_cache.pop(u, None)
                if gain is None:
                    lane = [u]
                    for _ng, v, t in heapq.nsmallest(batch - 1, heap):
                        if t != round_no and v not in round_cache:
                            lane.append(v)
                    results = batch_evaluate(lane, dist_nd, False)
                    batch_rounds += 1
                    lanes_evaluated += len(lane)
                    for v, (g, _none) in zip(lane, results):
                        round_cache[v] = g
                    gain = round_cache.pop(u)
                evaluations += 1
                heapq.heappush(heap, (-gain, u, round_no))
            lanes_short_circuited += len(round_cache)
        else:
            # CELF: pop/re-evaluate/re-push until the top is fresh.
            eager_evaluations += len(heap)
            round_updates: dict[int, list[tuple[int, int]]] = {}
            while True:
                neg_gain, u, tag = heapq.heappop(heap)
                if tag == round_no:
                    best_u = u
                    best_gain = -neg_gain
                    best_updates = round_updates[u]
                    break
                gain, updates = evaluate(u, dist, True)
                evaluations += 1
                round_updates[u] = updates
                heapq.heappush(heap, (-gain, u, round_no))

        if best_updates is None and not group:
            # Bitset round 0 ships gains only.  Against an empty group
            # the winner improves every vertex it reaches to its BFS
            # distance, so the vectorized full BFS is the commit.
            dist = trav.bfs_distances(best_u)
            dist_nd = _np.array(dist, dtype=_np.int32)
        else:
            if best_updates is None:
                # Batched scans ship gains only; re-derive the
                # winner's update list (uncounted: this candidate's
                # evaluation was already charged above).
                _gain, best_updates = evaluate(best_u, dist, True)
            if dist_nd is None:
                for v, new in best_updates:
                    dist[v] = new
            else:
                for v, new in best_updates:
                    dist[v] = new
                    dist_nd[v] = new
        in_group[best_u] = 1
        group.append(best_u)
        gains.append(best_gain)

    if counters is not None:
        extra = counters.extra
        extra["gain_batch"] = batch
        extra["batch_rounds"] = (
            extra.get("batch_rounds", 0) + batch_rounds
        )
        extra["lanes_evaluated"] = (
            extra.get("lanes_evaluated", 0) + lanes_evaluated
        )
        extra["lanes_short_circuited"] = (
            extra.get("lanes_short_circuited", 0) + lanes_short_circuited
        )
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
    gain_batch="auto",
) -> GreedyResult:
    """Strategy dispatcher shared by the Base*/NeiSky* entry points.

    ``strategy="lazy"`` (the default) runs the CELF engine;
    ``"eager"`` runs the reference driver (identical output, and the
    ``evaluations`` count of the paper's Example 2; ``counters``
    receives only the lazy engine's batch telemetry).  ``gain_batch``
    sets the batched-kernel lane count for either strategy; every value
    yields the identical result.
    """
    if strategy == "eager":
        return greedy_maximize(
            graph, k, objective, candidates=candidates,
            gain_batch=gain_batch,
        )
    if strategy != "lazy":
        raise ParameterError(
            f"unknown greedy strategy {strategy!r}; choose 'eager' or 'lazy'"
        )
    return lazy_greedy_maximize(
        graph,
        k,
        objective,
        candidates=candidates,
        counters=counters,
        gain_batch=gain_batch,
    )
