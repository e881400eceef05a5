"""``FilterRefineSkyBitset`` — Algorithm 3 with a packed-bitset refine kernel.

Identical phase structure to :func:`~repro.core.filter_refine.
filter_refine_sky` — same filter phase, same candidate scan order, same
Def. 2 tie-breaks — but the per-pair inclusion test is a word-packed
set operation instead of a bloom-probe chain:

* Candidate adjacency rows are packed into ``uint64`` words by
  :class:`~repro.graph.bitmatrix.CandidateBitMatrix` (``O(|C| · n/64)``
  words — rows exist only for the filter-phase survivors).
* The whole-subset test ``N(u) \\ {v} ⊆ N(w)`` is a single
  word-parallel AND-NOT over the packed rows (``row_u & ~row_w``),
  bypassing the bloom index entirely.  No hashing, no false positives,
  no per-neighbor ``NBRcheck`` — the test is exact by construction.

  The via-vertex exclusion is *vacuous* on every pair the scan can
  reach: ``w`` is enumerated from ``N(v)``, so ``v ∈ N(w)`` and bit
  ``v`` can never survive ``row_u & ~row_w``.  Hence the verdict is
  independent of which common neighbor ``v`` led to ``w``, the kernel
  drops the exclusion mask entirely — and caches the verdict: a ``w``
  re-encountered through a second common neighbor is settled by a
  stamp lookup instead of a second word sweep.  (The bloom path cannot
  cache this way without changing its counter stream, which the
  differential suite pins.)
* Each vertex ``v``'s neighbor list is pre-restricted to filter-phase
  candidates: every non-candidate ``w`` fails the ``O(w) = w`` check
  unconditionally (filter-phase dominations are frozen before refine
  starts), so the scan skips them wholesale instead of re-testing them
  for every ``u``.  On hub-heavy graphs this removes the bulk of the
  inner-loop iterations.

Output equivalence
------------------
The bloom path's *accept* condition for a pair — after all bloom
rejects are corrected by ``NBRcheck`` — is exactly
``N(u) \\ {v} ⊆ N(w)``, which is exactly the bitset test.  Pairs are
enumerated in the same order (candidate neighbor sublists preserve the
ascending order of ``N(v)``), skips read the same evolving dominator
array, and the settle/tie-break/early-exit logic is copied line for
line — so ``skyline``, ``dominator`` and ``candidates`` are
bit-for-bit the sequential bloom scan's, which the differential suite
pins to ``naive_sky``.

Counter semantics
-----------------
``vertices_examined``, ``pair_tests`` and ``dominations_found`` match
the bloom path exactly (the same pairs reach the test in the same
order).  ``degree_skips``/``dominated_skips`` are tallied in bulk per
visited neighbor list for the pre-excluded non-candidates (two
bisects over a degree-sorted array), so their totals match the bloom
path except when a strict domination exits a scan mid-list — the bulk
tally covers the whole list, the bloom path stopped counting at the
exit.  Totals are deterministic, and never undercount.  All ``bloom_*``
counters and ``nbr_checks`` stay zero: those probes do not exist on
this path.

Dense/sparse cutover
--------------------
Packing pays ``O(|C| · n/64)`` memory and setup.  When
``|C| · ⌈n/64⌉`` exceeds ``word_budget`` (or numpy is unavailable) the
algorithm falls back to the bloom refine pass — same filter phase, same
result, ``counters.extra["refine_path"] == "bloom-fallback"`` — so huge
sparse graphs never pay the packing cost.  The default budget of 2²⁴
words (128 MiB) admits every registry instance and cuts over around
web-scale inputs (e.g. ``|C| = 200k`` on ``n = 2.4M`` needs ~7.5G
words).

A second, *shape* cutover handles the opposite corner: candidate-dense
inputs.  The kernel's advantage is proportional to the non-candidate
fraction it skips wholesale, and on ``dblp_sim`` (~48 % candidates)
the measured refine speedup inverts to 0.85× — packing and group
setup outweigh the cheaper pair tests.  :func:`density_prefers_bloom`
routes such inputs to the bloom pass automatically: candidate sets of
at least :data:`DENSITY_FALLBACK_MIN_CANDIDATES` vertices whose
density ``|C|/n`` exceeds :data:`DENSITY_FALLBACK_THRESHOLD` fall
back, with the reason and the offending density recorded in
``counters.extra``.  The size floor keeps small dense graphs (karate:
18 candidates at density 0.53) on the bitset path, where packing is
negligible and the exact word test still wins.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Optional

from repro.bloom.vertex_filters import VertexBloomIndex
from repro.core.counters import NULL_COUNTERS, SkylineCounters
from repro.core.filter_phase import filter_phase
from repro.core.filter_refine import bloom_refine_pass
from repro.core.result import SkylineResult
from repro.graph.adjacency import Graph
from repro.graph.bitmatrix import (
    DEFAULT_WORD_BUDGET,
    HAVE_NUMPY,
    CandidateBitMatrix,
    matrix_words,
    validate_word_budget,
)

__all__ = [
    "BitsetScanContext",
    "DEFAULT_WORD_BUDGET",
    "DENSITY_FALLBACK_MIN_CANDIDATES",
    "DENSITY_FALLBACK_THRESHOLD",
    "bitset_refine_pass",
    "density_prefers_bloom",
    "filter_refine_bitset_sky",
]

#: Candidate-density fallback threshold: above this candidate fraction
#: the prefiltering no longer thins the 2-hop lists enough for packing
#: + group setup to pay for themselves (the measured ``dblp_sim``
#: regression sits near 0.48; the best bitset win, ``wikitalk_sim``, at
#: 0.05; the calibration margin below the regressor cluster is ~0.44).
DENSITY_FALLBACK_THRESHOLD = 0.35

#: Density alone means nothing on tiny candidate sets — packing a few
#: hundred rows is microseconds, and small dense graphs (karate packs
#: 18 rows at density 0.53) still win on the cheaper pair test.  The
#: heuristic only applies at or above this candidate count.
DENSITY_FALLBACK_MIN_CANDIDATES = 512


def density_prefers_bloom(num_candidates: int, num_vertices: int) -> bool:
    """Whether the candidate-density heuristic routes refine to bloom.

    ``True`` when the candidate set is both large enough for packing
    cost to matter (``DENSITY_FALLBACK_MIN_CANDIDATES``) and dense
    enough relative to ``num_vertices``
    (``DENSITY_FALLBACK_THRESHOLD``) that the bitset kernel's measured
    advantage inverts — see the module docstring's cutover section.
    """
    if num_candidates < DENSITY_FALLBACK_MIN_CANDIDATES:
        return False
    return num_candidates > DENSITY_FALLBACK_THRESHOLD * num_vertices


class BitsetScanContext:
    """Shared lookup state for bitset refine scans.

    Built once per pass from the graph, the filter-phase output and the
    packed matrix; :func:`bitset_refine_pass` only reads it.
    ``cand_groups[v]``
    holds the candidate members of ``N(v)`` as pre-bundled triples
    ``(w, deg(w), ~row_w)`` — everything the inner loop touches —
    built in one edge pass over the candidate set (ascending-ID order
    within each group falls out of the ascending candidate order).
    ``noncand_degs[v]`` holds the sorted degrees of the non-candidate
    members, which drive the bulk skip tallies; it is built only when
    ``instrumented`` — uninstrumented runs skip the bookkeeping
    entirely.
    """

    __slots__ = (
        "graph",
        "deg",
        "row_int",
        "comp",
        "cand_groups",
        "noncand_degs",
        "instrumented",
        "seen",
        "stamp",
    )

    def __init__(
        self,
        graph: Graph,
        candidates,
        matrix: CandidateBitMatrix,
        *,
        instrumented: bool = True,
    ):
        self.graph = graph
        n = graph.num_vertices
        neighbors = graph.neighbors
        # degrees() rather than len(neighbors()): on a CSRGraph it
        # reads indptr without materializing every adjacency row.
        deg = graph.degrees()
        self.deg = deg
        self.row_int = matrix.int_rows()
        comp = matrix.complement_int_rows()
        self.comp = comp
        cand_groups: list[list] = [[] for _ in range(n)]
        for u in candidates:
            triple = (u, deg[u], comp[u])
            for v in neighbors(u):
                cand_groups[v].append(triple)
        self.cand_groups = cand_groups
        self.instrumented = instrumented
        if instrumented:
            is_cand = bytearray(n)
            for u in candidates:
                is_cand[u] = 1
            noncand_degs: list = [None] * n
            for v in range(n):
                degs = sorted(
                    deg[w] for w in neighbors(v) if not is_cand[w]
                )
                noncand_degs[v] = degs
            self.noncand_degs = noncand_degs
        else:
            self.noncand_degs = None
        #: Verdict-dedup stamps: ``seen[w] == stamp`` marks ``w`` as
        #: already tested during the current outer scan.  Bump
        #: :attr:`stamp` (via :meth:`next_stamp`) once per outer vertex.
        self.seen = [0] * n
        self.stamp = 0

    def next_stamp(self) -> int:
        """A fresh stamp value for one outer-vertex scan."""
        self.stamp += 1
        return self.stamp


def bitset_refine_pass(
    ctx: BitsetScanContext,
    candidates,
    dominator: list[int],
    stats: SkylineCounters,
) -> None:
    """Run the refine loop in place over ``dominator`` (bitset kernel).

    Mirrors :func:`~repro.core.filter_refine.bloom_refine_pass`
    control flow exactly — see the module docstring for the
    bit-for-bit equivalence argument.  Dispatches to an uninstrumented
    scan when no counters are collected: the two scans make identical
    ``dominator`` updates (pinned by the differential suite), the fast
    one just drops the per-iteration counter writes, which are a
    measurable fraction of the loop on large instances.
    """
    if ctx.instrumented and stats is not NULL_COUNTERS:
        _counted_scan(ctx, candidates, dominator, stats)
    else:
        _fast_scan(ctx, candidates, dominator)


def _counted_scan(
    ctx: BitsetScanContext,
    candidates,
    dominator: list[int],
    stats: SkylineCounters,
) -> None:
    neighbors = ctx.graph.neighbors
    deg = ctx.deg
    row_int = ctx.row_int
    cand_groups = ctx.cand_groups
    noncand_degs = ctx.noncand_degs
    seen = ctx.seen

    for u in candidates:
        if dominator[u] != u:
            continue
        stats.vertices_examined += 1
        stamp = ctx.next_stamp()
        deg_u = deg[u]
        row_u = row_int[u]
        strictly_dominated = False
        for v in neighbors(u):
            if strictly_dominated:
                break
            noncand = noncand_degs[v]
            if noncand:
                below = bisect_left(noncand, deg_u)
                stats.degree_skips += below
                stats.dominated_skips += len(noncand) - below
            for w, deg_w, comp_w in cand_groups[v]:
                if w == u:
                    continue
                if deg_w < deg_u:
                    stats.degree_skips += 1
                    continue
                if dominator[w] != w:
                    stats.dominated_skips += 1
                    continue
                stats.pair_tests += 1
                if seen[w] == stamp:
                    # Verdict cached: a failing w stays failing, a
                    # passing mutual w already applied its (idempotent)
                    # tie-break, a passing strict w already broke out.
                    continue
                seen[w] = stamp
                if row_u & comp_w:
                    # Some neighbor of u is missing from N(w).  The
                    # via-vertex needs no exclusion: v ∈ N(w) always.
                    continue
                if deg_w == deg_u:
                    if u > w and dominator[u] == u:
                        dominator[u] = w
                        stats.dominations_found += 1
                elif dominator[u] == u:
                    dominator[u] = w
                    stats.dominations_found += 1
                    strictly_dominated = True
                    break


def _fast_scan(
    ctx: BitsetScanContext,
    candidates,
    dominator: list[int],
) -> None:
    # Same updates as _counted_scan with the counter writes removed;
    # the skip ladder folds into one short-circuit test.
    neighbors = ctx.graph.neighbors
    deg = ctx.deg
    row_int = ctx.row_int
    cand_groups = ctx.cand_groups
    seen = ctx.seen

    for u in candidates:
        if dominator[u] != u:
            continue
        stamp = ctx.next_stamp()
        deg_u = deg[u]
        row_u = row_int[u]
        strictly_dominated = False
        for v in neighbors(u):
            if strictly_dominated:
                break
            for w, deg_w, comp_w in cand_groups[v]:
                if (
                    w == u
                    or deg_w < deg_u
                    or dominator[w] != w
                    or seen[w] == stamp
                ):
                    continue
                seen[w] = stamp
                if row_u & comp_w:
                    continue
                if deg_w == deg_u:
                    if u > w and dominator[u] == u:
                        dominator[u] = w
                elif dominator[u] == u:
                    dominator[u] = w
                    strictly_dominated = True
                    break


def filter_refine_bitset_sky(
    graph: Graph,
    *,
    word_budget: Optional[int] = None,
    bloom_bits: Optional[int] = None,
    bits_per_element: int = 8,
    seed: int = 0,
    counters: Optional[SkylineCounters] = None,
    density_fallback: bool = True,
) -> SkylineResult:
    """Compute the neighborhood skyline with the packed-bitset refine.

    Parameters
    ----------
    graph:
        The input graph.
    word_budget:
        Dense/sparse cutover: when ``|C| · ⌈n/64⌉`` exceeds this many
        ``uint64`` words, refine falls back to the bloom path instead
        of packing (``None`` → :data:`DEFAULT_WORD_BUDGET`; budgets
        ``<= 0`` are rejected — see
        :func:`repro.graph.bitmatrix.validate_word_budget`).  Within
        budget, large candidate-dense sets fall back too — see
        :func:`density_prefers_bloom`.
    bloom_bits / bits_per_element / seed:
        Bloom sizing for the fallback path only; ignored when the
        bitset kernel runs.
    counters:
        Optional instrumentation sink.  ``counters.extra["refine_path"]``
        records which side of the cutover ran; on the bitset side
        ``counters.extra["bitset_words"]`` records the packed size, on
        a fallback ``"bitset_fallback_reason"`` records which cutover
        fired (``"word-budget"`` or ``"candidate-density"``, the
        latter with ``"candidate_density"`` holding ``|C|/n``).
    density_fallback:
        ``False`` disables the candidate-density cutover (the word
        budget still applies) — for benchmarks that measure the
        packed kernel on inputs the heuristic would route away.

    The result is always exact and bit-for-bit equal to
    :func:`~repro.core.filter_refine.filter_refine_sky` (there is no
    approximate variant: the kernel has no bloom error to trade away).
    """
    word_budget = validate_word_budget(word_budget)
    stats = counters if counters is not None else NULL_COUNTERS
    n = graph.num_vertices
    candidates, dominator = filter_phase(graph, counters=counters)

    words_needed = matrix_words(len(candidates), n)
    fallback_reason = None
    if not HAVE_NUMPY or words_needed > word_budget:
        fallback_reason = "word-budget"
    elif density_fallback and density_prefers_bloom(len(candidates), n):
        fallback_reason = "candidate-density"
    use_bitset = fallback_reason is None

    if use_bitset:
        matrix = CandidateBitMatrix.from_graph(graph, candidates)
        ctx = BitsetScanContext(
            graph, candidates, matrix, instrumented=counters is not None
        )
        bitset_refine_pass(ctx, candidates, dominator, stats)
        algorithm = "FilterRefineSkyBitset"
        if counters is not None:
            counters.extra["refine_path"] = "bitset"
            counters.extra["bitset_words"] = matrix.memory_words()
    else:
        blooms = VertexBloomIndex(
            graph,
            candidates,
            bits=bloom_bits,
            seed=seed,
            bits_per_element=bits_per_element,
        )
        bloom_refine_pass(graph, candidates, dominator, blooms, stats)
        algorithm = "FilterRefineSkyBitset(bloom-fallback)"
        if counters is not None:
            counters.extra["refine_path"] = "bloom-fallback"
            counters.extra["bitset_fallback_reason"] = fallback_reason
            if fallback_reason == "word-budget":
                counters.extra["bitset_words_over_budget"] = words_needed
            else:
                counters.extra["candidate_density"] = (
                    len(candidates) / n if n else 0.0
                )

    skyline = tuple(u for u in range(n) if dominator[u] == u)
    return SkylineResult(
        skyline=skyline,
        dominator=tuple(dominator),
        candidates=tuple(candidates),
        algorithm=algorithm,
        counters=counters,
    )
