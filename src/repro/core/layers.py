"""Dominance-layer decomposition ("onion peeling" of the skyline).

A natural extension of the skyline: rank every vertex by its depth in
the domination order.  Layer 1 is the neighborhood skyline; a dominated
vertex sits one layer below its deepest dominator:

    layer(u) = 1                          if nothing dominates u
    layer(u) = 1 + max layer(dominators)  otherwise

i.e. the longest chain of dominations above the vertex.  The layer
number is a structural "importance depth" — the paper's applications
use only layer 1, but the full decomposition answers follow-up
questions like *who would enter the skyline if its dominators left?*
(used, for example, by the top-k clique search's re-entry step in
spirit) and gives a total quality ordering for pruning heuristics.

Computed by a longest-path pass over the dominance DAG: every
domination pair, enumerated with the counting scheme of Brandes et al.
(the partial-order problem the paper contrasts its skyline with).
"""

from __future__ import annotations

from typing import Iterator

from repro.graph.adjacency import Graph

__all__ = ["dominance_layers", "layer_sets"]


def _dominance_pairs(graph: Graph) -> Iterator[tuple[int, int]]:
    """Yield every pair ``(dominator, dominated)`` of the graph.

    Follows the counting scheme of Brandes et al.: for each vertex ``v``
    accumulate ``|N(v) ∩ N[w]|`` over the 2-hop neighborhood and emit
    the pairs where the count reaches ``deg(v)``, resolving mutual
    inclusions by the ID tie-break of Def. 2.  ``O(m · dmax)`` time like
    Algorithm 1, but *without* the first-dominator short-circuit — every
    relationship is reported.
    """
    n = graph.num_vertices
    count = [0] * n
    stamp = [-1] * n
    for v in range(n):
        deg_v = graph.degree(v)
        if deg_v == 0:
            continue  # isolated vertices are incomparable by convention
        for x in graph.neighbors(v):
            for w in _closed_neighborhood_except(graph, x, v):
                if stamp[w] != v:
                    stamp[w] = v
                    count[w] = 0
                count[w] += 1
                if count[w] != deg_v:
                    continue
                # N(v) ⊆ N[w]; resolve direction per Def. 2.
                deg_w = graph.degree(w)
                if deg_w > deg_v or (deg_w == deg_v and w < v):
                    yield (w, v)


def _closed_neighborhood_except(graph: Graph, x: int, v: int):
    for w in graph.neighbors(x):
        if w != v:
            yield w
    yield x


def _dominance_dag(graph: Graph) -> dict[int, list[int]]:
    """``dag[u]`` = sorted vertices dominated by ``u`` (may be empty).

    The relation is a strict partial order, so the result is a DAG (in
    successor-map form) and is transitively closed.
    """
    dag: dict[int, list[int]] = {u: [] for u in graph.vertices()}
    for dominator, dominated in _dominance_pairs(graph):
        dag[dominator].append(dominated)
    for successors in dag.values():
        successors.sort()
    return dag


def dominance_layers(graph: Graph) -> list[int]:
    """``layers[u]`` = 1-based dominance depth of every vertex.

    ``O(m · dmax)`` for the pair enumeration plus linear DAG work.
    """
    dag = _dominance_dag(graph)
    n = graph.num_vertices
    indegree = [0] * n
    for successors in dag.values():
        for v in successors:
            indegree[v] += 1
    # indegree[v] counts v's dominators; sources are the skyline.
    layers = [1] * n
    queue = [u for u in range(n) if indegree[u] == 0]
    while queue:
        u = queue.pop()
        depth = layers[u] + 1
        for v in dag[u]:
            if depth > layers[v]:
                layers[v] = depth
            indegree[v] -= 1
            if indegree[v] == 0:
                queue.append(v)
    return layers


def layer_sets(graph: Graph) -> list[tuple[int, ...]]:
    """The decomposition as sorted vertex tuples, outermost first.

    ``layer_sets(g)[0]`` equals the neighborhood skyline.
    """
    layers = dominance_layers(graph)
    if not layers:
        return []
    buckets: list[list[int]] = [[] for _ in range(max(layers))]
    for u, depth in enumerate(layers):
        buckets[depth - 1].append(u)
    return [tuple(bucket) for bucket in buckets]
