"""``FilterRefineSky`` — Algorithm 3: the paper's main algorithm.

Two phases:

1. **Filter** (:func:`~repro.core.filter_phase.scalar_filter_phase`,
   the scalar Alg. 2 reference): prune
   every vertex with an edge-constrained dominator; the survivors form
   the candidate set ``C ⊇ R`` (Lemma 1).
2. **Refine**: for each candidate ``u``, look for a *plain* dominator
   among its 2-hop neighborhood.  Because the filter phase already ruled
   out 1-hop dominators, only distance-2 vertices can still dominate —
   though the scan enumerates ``w ∈ N(v) \\ {u}`` for ``v ∈ N(u)`` as in
   the paper, and re-encountered 1-hop vertices simply fail the check.

The refine test for a pair ``(u, w)`` is layered cheapest-first, exactly
as lines 12–19 of the paper:

* ``deg(w) < deg(u)``  → ``w`` cannot dominate ``u``;
* ``O(w) ≠ w``         → ``w`` is itself dominated; by transitivity of
  the vicinal pre-order its dominator will be met instead;
* whole-filter check ``BF(u) & BF(w) = BF(u)`` — necessary for
  ``N(u) ⊆ N(w)``;
* per-neighbor ``BFcheck`` then exact ``NBRcheck`` for each
  ``x ∈ N(u) \\ {v}`` (bloom false positives are corrected here, so the
  final answer is exact).

When a dominator ``w`` survives all checks: strict domination
(``deg(w) > deg(u)``) removes ``u`` and stops its scan; mutual inclusion
(equal degrees) applies the ID tie-break and continues scanning.

This is the reference refine: the production default runs the
vectorized filter pass with the block kernel of
:mod:`repro.core.block_refine`, and the differential suites pin the two
to each other bit for bit.
"""

from __future__ import annotations

from typing import Optional

from repro.bloom.vertex_filters import VertexBloomIndex
from repro.core.counters import NULL_COUNTERS, SkylineCounters
from repro.core.filter_phase import scalar_filter_phase
from repro.core.result import SkylineResult
from repro.graph.adjacency import Graph

__all__ = ["filter_refine_sky", "bloom_refine_pass"]


def bloom_refine_pass(
    graph: Graph,
    candidates: list[int],
    dominator: list[int],
    blooms: VertexBloomIndex,
    stats: SkylineCounters,
    *,
    exact: bool = True,
) -> None:
    """Run Algorithm 3's refine loop in place over ``dominator``.

    Per-pair ``degree(w)`` and ``filter_word(w)`` lookups are hoisted
    into flat arrays built once per pass — ``deg`` over all vertices
    (the degree skip fires for arbitrary 2-hop ``w``), ``fw`` filled
    for the candidates (the only vertices whose filters are ever read:
    everyone else fails the ``O(w) = w`` check first).  Pure lookup
    motion; the counter stream is identical to the unhoisted scan.
    """
    n = graph.num_vertices
    bit_of = blooms.bit_masks
    neighbors = graph.neighbors
    has_edge = graph.has_edge
    # degrees() reads indptr — no row is built just to measure it.
    deg = graph.degrees()
    filter_word = blooms.filter_word
    fw = [0] * n
    for u in candidates:
        fw[u] = filter_word(u)

    for u in candidates:
        if dominator[u] != u:
            continue
        stats.vertices_examined += 1
        deg_u = deg[u]
        bf_u = fw[u]
        nbrs_u = neighbors(u)
        strictly_dominated = False
        for v in nbrs_u:
            if strictly_dominated:
                break
            for w in neighbors(v):
                if w == u:
                    continue
                if deg[w] < deg_u:
                    stats.degree_skips += 1
                    continue
                if dominator[w] != w:
                    # w is dominated; its dominator covers u transitively.
                    stats.dominated_skips += 1
                    continue
                stats.pair_tests += 1
                bf_w = fw[w]
                if bf_u & bf_w != bf_u:
                    # Some neighbor of u is provably missing from N(w).
                    stats.bloom_subset_rejects += 1
                    continue
                dominated_by_w = True
                for x in nbrs_u:
                    if x == v:
                        continue
                    stats.bloom_member_checks += 1
                    if not (bf_w & bit_of[x]):
                        # BFcheck: x surely not in N(w).
                        stats.bloom_member_rejects += 1
                        dominated_by_w = False
                        break
                    if exact:
                        stats.nbr_checks += 1
                        if not has_edge(w, x):
                            # NBRcheck caught a bloom false positive.
                            stats.bloom_false_positives += 1
                            dominated_by_w = False
                            break
                if not dominated_by_w:
                    continue
                # N(u) ⊆ N[w] certified (v itself is adjacent to w).
                if deg[w] == deg_u:
                    # Mutual inclusion: smaller ID dominates; keep
                    # scanning either way (paper lines 22-25).
                    if u > w and dominator[u] == u:
                        dominator[u] = w
                        stats.dominations_found += 1
                elif dominator[u] == u:
                    dominator[u] = w
                    stats.dominations_found += 1
                    strictly_dominated = True
                    break


def filter_refine_sky(
    graph: Graph,
    *,
    bloom_bits: Optional[int] = None,
    bits_per_element: int = 8,
    seed: int = 0,
    counters: Optional[SkylineCounters] = None,
    exact: bool = True,
) -> SkylineResult:
    """Compute the neighborhood skyline with ``FilterRefineSky``.

    Parameters
    ----------
    graph:
        The input graph.
    bloom_bits:
        Explicit shared bloom width; default derives from ``dmax`` like
        the paper's ``BK`` scheme (see
        :func:`~repro.bloom.vertex_filters.width_for_max_degree`).
    bits_per_element:
        Sizing knob used when ``bloom_bits`` is not given.
    seed:
        Bloom hash seed.
    counters:
        Optional instrumentation sink.
    exact:
        When ``False``, skip the exact ``NBRcheck`` and trust the bloom
        filter (the "approximate skyline" discussed as future work in the
        paper's Sec. III remark).  The result is then a *subset* of the
        true skyline: bloom false positives can only cause extra
        vertices to look dominated, never the reverse.

    Worst-case time ``O(m + dmax · Σ_{u∈C} deg(u)²)`` and space
    ``O(m + |C| · dmax)`` (Theorem 3).
    """
    stats = counters if counters is not None else NULL_COUNTERS
    n = graph.num_vertices
    candidates, dominator = scalar_filter_phase(graph, counters=counters)

    blooms = VertexBloomIndex(
        graph,
        candidates,
        bits=bloom_bits,
        seed=seed,
        bits_per_element=bits_per_element,
    )
    bloom_refine_pass(
        graph, candidates, dominator, blooms, stats, exact=exact
    )

    skyline = tuple(u for u in range(n) if dominator[u] == u)
    return SkylineResult(
        skyline=skyline,
        dominator=tuple(dominator),
        candidates=tuple(candidates),
        algorithm="FilterRefineSky" if exact else "FilterRefineSky~approx",
        counters=counters,
    )
