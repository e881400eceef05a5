"""Top-k maximum cliques (Sec. IV-C.3): ``BaseTopkMCC`` vs ``NeiSkyTopkMCC``.

``MC(u)`` denotes the largest clique containing ``u``.  Task: return the
``k`` largest *distinct* cliques among ``{MC(u) : u ∈ V}``.

Both variants follow the paper's **round** structure; round ``j`` picks
the ``j``-th clique:

* ``BaseTopkMCC`` — every round roots a (floor-pruned) search at *every*
  vertex and selects the largest clique not yet selected, so its cost
  grows linearly in ``k``.  At ``k = 1`` it degenerates to plain MC-BRB
  (one global search), exactly as the paper notes for Fig. 9.
* ``NeiSkyTopkMCC`` — rounds root only at the *current root set*:
  initially the neighborhood skyline, and whenever a clique rooted at
  ``u`` is selected, the vertices directly dominated by ``u`` re-enter
  the root set (by Lemma 6 their cliques are no larger than ``u``'s, so
  they only become interesting once ``u``'s clique is consumed).  At
  ``k = 1`` it degenerates to ``NeiSkyMC`` plus the skyline cost.
  Each root's ``MC(u)`` is searched once per call and reused by later
  rounds.

Within a round every root's ``MC(u)`` is computed *exactly* (no
incumbent floor) — the base variant is deliberately the "straightforward
method" of the paper, which is what makes its cost grow with both ``n``
and ``k`` and gives the skyline-rooted variant its Fig. 9 advantage; the
base variant also re-searches every root in every round, as the paper's
baseline does.
Roots are visited densest-first for deterministic tie-breaking.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.clique.mcbrb import max_clique_with_root, mc_brb
from repro.clique.neisky import neisky_mc
from repro.core.api import neighborhood_skyline
from repro.core.deadline import check as check_deadline
from repro.core.result import SkylineResult
from repro.errors import ParameterError
from repro.graph.adjacency import Graph

__all__ = ["base_topk_mcc", "neisky_topk_mcc"]


def _round_winner(
    graph: Graph,
    degree: Sequence[int],
    adjacency: Sequence[set[int]],
    roots: Sequence[int],
    selected: set[tuple[int, ...]],
    known: Optional[dict[int, tuple[int, ...]]] = None,
) -> tuple[Optional[tuple[int, ...]], int]:
    """Largest unselected clique rooted in ``roots`` plus its root.

    Computes ``MC(u)`` exactly for every root (densest-first for
    deterministic ties).  ``known``, when given, memoizes ``MC(u)``
    across rounds: with no floor the search depends on ``u`` alone.
    Returns ``(None, -1)`` when every root's clique was already
    selected.
    """
    best: Optional[tuple[int, ...]] = None
    best_root = -1
    for u in sorted(roots, key=lambda v: (-degree[v], v)):
        check_deadline()
        clique = None if known is None else known.get(u)
        if clique is None:
            clique = tuple(
                max_clique_with_root(graph, u, adjacency=adjacency)
            )
            if known is not None:
                known[u] = clique
        if clique in selected:
            continue
        if best is None or (-len(clique), clique) < (-len(best), best):
            best, best_root = clique, u
    return best, best_root


def base_topk_mcc(graph: Graph, k: int) -> list[list[int]]:
    """``BaseTopkMCC``: round-based top-k over all vertices as roots."""
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    if graph.num_vertices == 0:
        return []
    if k == 1:
        return [mc_brb(graph)]
    degree = graph.degrees()
    adjacency = [set(graph.neighbors(u)) for u in graph.vertices()]
    all_roots = list(graph.vertices())
    selected: list[list[int]] = []
    selected_keys: set[tuple[int, ...]] = set()
    while len(selected) < k:
        clique, _root = _round_winner(
            graph, degree, adjacency, all_roots, selected_keys
        )
        if clique is None:
            break
        selected.append(list(clique))
        selected_keys.add(clique)
    return selected


def neisky_topk_mcc(
    graph: Graph,
    k: int,
    *,
    skyline_result: Optional[SkylineResult] = None,
) -> list[list[int]]:
    """``NeiSkyTopkMCC``: skyline-rooted rounds with dominatee re-entry.

    ``skyline_result`` (not just the skyline — the dominator witnesses
    drive the re-entry step) may be supplied when precomputed; by default
    :func:`~repro.core.api.neighborhood_skyline` runs first, and its
    cost is part of what Exp-6 measures.
    """
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    n = graph.num_vertices
    if n == 0:
        return []
    if skyline_result is None:
        skyline_result = neighborhood_skyline(graph)
    if k == 1:
        return [neisky_mc(graph, skyline=skyline_result.skyline)]
    dominator = skyline_result.dominator
    dominatees: dict[int, list[int]] = {}
    for v, d in enumerate(dominator):
        if d != v:
            dominatees.setdefault(d, []).append(v)

    degree = graph.degrees()
    adjacency = [set(graph.neighbors(u)) for u in graph.vertices()]
    roots: set[int] = set(skyline_result.skyline)
    selected: list[list[int]] = []
    selected_keys: set[tuple[int, ...]] = set()
    known: dict[int, tuple[int, ...]] = {}
    while len(selected) < k:
        clique, root = _round_winner(
            graph, degree, adjacency, sorted(roots), selected_keys, known
        )
        if clique is None:
            # Current roots exhausted: let every root's dominatees in and
            # retry; stop once that adds nothing.
            grown = False
            for u in list(roots):
                for v in dominatees.get(u, ()):
                    if v not in roots:
                        roots.add(v)
                        grown = True
            if not grown:
                break
            continue
        selected.append(list(clique))
        selected_keys.add(clique)
        for v in dominatees.get(root, ()):
            roots.add(v)
    return selected
