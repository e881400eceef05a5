"""Group betweenness maximization — the Sec. IV-D extension.

The paper proves its skyline pruning for closeness and harmonic group
centralities and argues (Sec. IV-D) that the same inequalities hold for
*any* shortest-path-based group measure, naming group betweenness
maximization as future work.  This module implements that extension:

* :func:`group_betweenness` — exact ``GB(S)``: the number of ordered-
  pair shortest-path "coverages", where a pair ``(s, t)`` with
  ``s, t ∉ S`` contributes the fraction of its shortest paths meeting
  ``S``.  Computed by comparing path counts in ``G`` against path counts
  in ``G − S`` (a path avoids ``S`` iff it survives the deletion).
* :func:`base_gb` / :func:`neisky_gb` — greedy maximization over all
  vertices / over the skyline.

Cost caveat: one ``GB`` evaluation is ``O(n·m)`` and greedy evaluates it
per candidate per round, so this is a small-graph tool — consistent
with its status as an extension rather than a headline experiment.

Both entry points share the driver API of the closeness/harmonic pair:
``strategy="lazy"`` runs a CELF schedule over the *marginal gains*
``GB(S∪{u}) − GB(S)`` (group betweenness is monotone submodular, so
stale gains are upper bounds).  One wrinkle the distance-based
objectives don't have: the eager scan compares absolute scores, and the
float subtraction ``score − prev`` can collapse distinct scores into
equal gains — so when the heap top is fresh, every gain-tied entry is
drained and re-evaluated, and the round settles on the highest *score*
(smallest ID on ties), reproducing the eager pick exactly.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.centrality.betweenness import sp_counts_from
from repro.centrality.greedy import candidate_pool
from repro.core.api import neighborhood_skyline
from repro.errors import ParameterError
from repro.graph.adjacency import Graph

__all__ = ["group_betweenness", "base_gb", "neisky_gb", "GroupBetweennessResult"]


def group_betweenness(graph: Graph, group: Iterable[int]) -> float:
    """Exact group betweenness of ``group`` (unordered pairs, unnormalized).

    ``GB(S) = Σ_{ {s,t} ⊆ V∖S } σ_st(S) / σ_st`` where ``σ_st(S)`` counts
    the shortest ``s–t`` paths passing through at least one member of
    ``S``.  A pair contributes 1 when *every* shortest path is hit
    (deleting ``S`` lengthens or disconnects it).
    """
    members = sorted(set(group))
    member_set = set(members)
    n = graph.num_vertices
    if not member_set:
        return 0.0
    remaining = [v for v in range(n) if v not in member_set]
    reduced, mapping = graph.induced_subgraph(remaining)
    to_reduced = {old: new for new, old in enumerate(mapping)}

    total = 0.0
    for s in remaining:
        dist_full, sigma_full = sp_counts_from(graph, s)
        dist_red, sigma_red = sp_counts_from(reduced, to_reduced[s])
        for t in remaining:
            if t <= s:
                continue
            d = dist_full[t]
            if d == -1:
                continue
            rt = to_reduced[t]
            if dist_red[rt] == d:
                surviving = sigma_red[rt]
            else:
                surviving = 0  # all shortest paths pass through S
            total += 1.0 - surviving / sigma_full[t]
    return total


@dataclass(frozen=True)
class GroupBetweennessResult:
    """Greedy group-betweenness outcome (scores are exact ``GB`` values).

    ``evaluations_saved``/``strategy`` mirror
    :class:`~repro.centrality.greedy.GreedyResult`.
    """

    group: tuple[int, ...]
    scores: tuple[float, ...]
    evaluations: int
    pool_size: int
    evaluations_saved: int = 0
    strategy: str = "eager"

    @property
    def final_score(self) -> float:
        return self.scores[-1] if self.scores else 0.0


def _eager_gb(
    graph: Graph, k: int, pool: list[int]
) -> GroupBetweennessResult:
    n = graph.num_vertices
    k = min(k, n)
    group: list[int] = []
    scores: list[float] = []
    evaluations = 0
    chosen: set[int] = set()
    for _round in range(k):
        active = [u for u in pool if u not in chosen]
        if not active:
            active = [u for u in range(n) if u not in chosen]
            if not active:
                break
        best_u, best_score = -1, float("-inf")
        for u in active:
            evaluations += 1
            score = group_betweenness(graph, group + [u])
            if score > best_score:
                best_u, best_score = u, score
        chosen.add(best_u)
        group.append(best_u)
        scores.append(best_score)
    return GroupBetweennessResult(
        group=tuple(group),
        scores=tuple(scores),
        evaluations=evaluations,
        pool_size=len(pool),
    )


def _lazy_gb(
    graph: Graph, k: int, pool: list[int]
) -> GroupBetweennessResult:
    n = graph.num_vertices
    k = min(k, n)
    group: list[int] = []
    scores: list[float] = []
    evaluations = 0
    eager_evaluations = 0
    chosen: set[int] = set()
    prev = 0.0  # GB(S) of the committed group so far
    #: CELF heap of (-(score - prev), u, round_tag); stale gains are
    #: upper bounds by submodularity of GB.
    heap: list[tuple[float, int, int]] = []

    for round_no in range(k):
        if not heap:
            active = [u for u in pool if u not in chosen]
            if not active:
                active = [u for u in range(n) if u not in chosen]
                if not active:
                    break
            eager_evaluations += len(active)
            evaluations += len(active)
            best_idx = -1
            best_score = float("-inf")
            entries: list[tuple[int, float]] = []
            for u in active:
                score = group_betweenness(graph, group + [u])
                if score > best_score:
                    best_score = score
                    best_idx = len(entries)
                entries.append((u, score))
            best_u = entries[best_idx][0]
            heap = [
                (-(score - prev), u, round_no)
                for i, (u, score) in enumerate(entries)
                if i != best_idx
            ]
            heapq.heapify(heap)
        else:
            eager_evaluations += len(heap)
            fresh_scores: dict[int, float] = {}
            while True:
                neg_gain, u, tag = heap[0]
                if tag == round_no:
                    break
                heapq.heappop(heap)
                score = group_betweenness(graph, group + [u])
                evaluations += 1
                fresh_scores[u] = score
                heapq.heappush(heap, (-(score - prev), u, round_no))
            # Contender drain: entries whose cached gain ties the fresh
            # top may hide distinct absolute scores behind the rounded
            # subtraction; eager compares scores, so re-evaluate every
            # gain-tied entry and settle by score (ID breaks ties via
            # the ascending pop order + strict comparison).
            top_gain = heap[0][0]
            contenders: list[tuple[int, float]] = []
            while heap and heap[0][0] == top_gain:
                _, u, tag = heapq.heappop(heap)
                if tag == round_no:
                    score = fresh_scores[u]
                else:
                    score = group_betweenness(graph, group + [u])
                    evaluations += 1
                contenders.append((u, score))
            best_u, best_score = contenders[0]
            for u, score in contenders[1:]:
                if score > best_score:
                    best_u, best_score = u, score
            for u, score in contenders:
                if u != best_u:
                    heapq.heappush(heap, (-(score - prev), u, round_no))

        chosen.add(best_u)
        group.append(best_u)
        scores.append(best_score)
        prev = best_score

    return GroupBetweennessResult(
        group=tuple(group),
        scores=tuple(scores),
        evaluations=evaluations,
        pool_size=len(pool),
        evaluations_saved=eager_evaluations - evaluations,
        strategy="lazy",
    )


def _greedy_gb(
    graph: Graph, k: int, pool: list[int], strategy: str = "eager"
) -> GroupBetweennessResult:
    if k < 0:
        raise ParameterError(f"group size k must be >= 0, got {k}")
    if strategy == "eager":
        return _eager_gb(graph, k, pool)
    if strategy != "lazy":
        raise ParameterError(
            f"unknown greedy strategy {strategy!r}; choose 'eager' or 'lazy'"
        )
    return _lazy_gb(graph, k, pool)


def base_gb(
    graph: Graph, k: int, *, strategy: str = "eager"
) -> GroupBetweennessResult:
    """Greedy group-betweenness over the full vertex set."""
    return _greedy_gb(graph, k, list(graph.vertices()), strategy)


def neisky_gb(
    graph: Graph,
    k: int,
    *,
    skyline: Optional[tuple[int, ...]] = None,
    strategy: str = "eager",
) -> GroupBetweennessResult:
    """Greedy group-betweenness restricted to the neighborhood skyline.

    A given ``skyline`` is validated like any greedy candidate pool
    (:func:`~repro.centrality.greedy.candidate_pool`): integer vertex
    IDs in ``[0, n)``, deduplicated and sorted.
    """
    if skyline is None:
        skyline = neighborhood_skyline(graph).skyline
    pool = candidate_pool(skyline, graph.num_vertices)
    return _greedy_gb(graph, k, pool, strategy)
