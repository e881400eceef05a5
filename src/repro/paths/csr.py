"""Flat-array CSR BFS kernels for greedy marginal-gain evaluation.

The scalar kernels in :mod:`repro.paths.bfs` and
:mod:`repro.paths.truncated` are fine for one-shot queries, but the
greedy group-centrality drivers call them thousands of times per run —
one truncated BFS per candidate per round.  At that call rate the
per-evaluation overheads dominate: a fresh ``new_dist`` list and deque
per call, a generator suspension plus tuple allocation per improved
vertex, and a Python-level ``gain_weight`` call per improvement.

:class:`CSRTraversal` removes all three.  It is built once per run
from one :class:`~repro.graph.adjacency.Graph` and keeps:

* **the graph's own neighbour tuples** (the storage
  :meth:`~repro.graph.adjacency.Graph.neighbors` hands out, built on
  first use and kept), so the scalar loops iterate plain tuples, a run
  that scans a fraction of the graph only pays for the rows it touches,
  and every later traversal of the same graph object reuses them;
* **the graph's ``int32`` CSR arrays** (zero-copy,
  :meth:`~repro.graph.adjacency.Graph.csr_arrays`), which back the
  vectorized kernels — the full BFS
  of :meth:`bfs_distances` / :meth:`multi_source_distances`
  (distances are order-independent, so it returns exactly the scalar
  kernel's values), the vector gain scan and the round-0 kernel;
* two preallocated scratch lists reused across evaluations: ``queue``
  (a flat FIFO whose prefix, after a traversal, lists the improved
  vertices **in the exact order** the generator version yields them —
  source first, then FIFO discovery order over sorted rows) and
  ``olds`` (each queued vertex's distance before the scan).

That ordering guarantee is what makes the gain kernels bit-for-bit
compatible with the eager driver: gains are float sums, and floating-
point addition is not associative, so the scalar folds below
replicate :mod:`repro.paths.truncated` + ``gain_weight`` term by term
in the same order with the same arithmetic — closeness accumulates
integer farness drops (exact in either representation), harmonic adds
``1.0/new - old_term`` as one fused expression exactly as
:class:`~repro.centrality.group_harmonic_max.HarmonicObjective` does.

**One-array scalar scan.**  The scalar gain scan of
:meth:`CSRTraversal.adaptive_eval` keeps no tentative-distance array of
its own: it lowers the committed distance list in place (``n`` standing
for "unreachable"), so one comparison per edge both skips vertices this
scan already reached and prunes those the candidate does not move
closer.  One sweep over ``queue`` then folds the gain in emission order
and restores the list from ``olds``.

**Vector gain scan.**  The pruned gain scan *also* vectorizes, despite
its emission-order contract: :meth:`CSRTraversal._vector_scan` runs one
pruned BFS as one numpy pass per frontier level and reconstructs the
scalar emission order exactly.  The trick is the same first-occurrence
gather :mod:`repro.core.block_refine` proved out: within one level the
ragged ``np.repeat`` row gather visits parents in frontier order and
neighbors in row order — precisely the scalar FIFO discovery order — so
deduping same-level rediscoveries by *first occurrence* (a linear
reversed scatter-claim, not a sort) leaves the per-level emission
sequence identical to the scalar scan.  Levels concatenate
level-major, which is FIFO order, so :meth:`CSRTraversal._vector_eval`
replays the scalar float accumulation term by term: closeness sums
integer drops (order-free, exact), harmonic computes every
``1.0/new - old_term`` term vectorized (elementwise IEEE arithmetic
equals CPython's) and then adds them sequentially in emission order,
and the generic kernel feeds ``gain_weight`` the same ``(old, new)``
stream the scalar loop would.

**Adaptive single-candidate kernel.**  After round 0 a pruned scan
usually touches only the few vertices a candidate would move closer,
and there the vector scan's ~10 numpy calls per level cost more than
the scalar loop.  :meth:`CSRTraversal.adaptive_eval` runs the scalar
scan under an edge-visit budget (:data:`SCAN_EDGE_BUDGET`) and hands
only scans that run past it to the vector scan.  The lazy (CELF)
driver scores every scan after round 0 this way.

**Round-0 kernel.**  With the group still empty every gain scan is a
plain BFS and every vertex at level ``L`` contributes the same term, so
:meth:`CSRTraversal.first_round_gains` needs only each source's level
histogram.  It gets all of them from one bitset multi-source BFS — 64
sources per machine word, one gather and one ``bitwise_or.reduceat``
per level — and replays each lane's scalar fold from the histogram.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as _np

from repro.core.deadline import check as check_deadline
from repro.graph.adjacency import Graph

__all__ = ["CSRTraversal"]

#: Soft budget on the words one level of the round-0 bitset BFS
#: gathers: :meth:`CSRTraversal.first_round_gains` chunks its sources so
#: that the ``(2m, W)`` neighbor-mask gather stays within it.
ROUND0_CELL_BUDGET = 1 << 23

#: Edge-visit budget of :meth:`CSRTraversal.adaptive_eval`: a gain scan
#: that visits more edges than this is handed from the scalar loop to
#: the vector scan.  Fitted on the CELF drain of group_rmat,
#: copying-model n=400 graphs and kron_large (table in
#: ``docs/centrality-kernels.md``).
SCAN_EDGE_BUDGET = 1024


def _sequential_sum(terms) -> float:
    """The scalar ``gain = 0.0; gain += t`` chain over a float64 array.

    ``np.cumsum`` is a strictly left-to-right accumulate; ``np.sum``
    (pairwise) and, since Python 3.12, the builtin ``sum`` of floats
    (compensated) are not, and would drift from the scalar kernels in
    the last bits.  Starting the chain at ``terms[0]`` instead of
    ``0.0`` can differ only in the sign of a zero total, which the
    final ``0.0 +`` normalizes the way the scalar chain does (its
    harmonic source term is ``-0.0``, and ``0.0 + -0.0`` is ``+0.0``).
    """
    if not terms.size:
        return 0.0
    return 0.0 + float(_np.cumsum(terms)[-1])


class CSRTraversal:
    """Reusable BFS workspace over the CSR arrays of one graph.

    Instances are cheap to query but stateful: the scratch buffers are
    reused by every call, so a single traversal must finish before the
    next one starts (no interleaving, no sharing across threads).
    """

    __slots__ = (
        "n",
        "_rows",
        "_neighbors",
        "_nd_indptr",
        "_nd_indices",
        "_nd_indptr64",
        "_nd_dist",
        "_vec_dist",
        "_vec_claim",
        "_claim_tick",
        "_olds",
        "_queue",
        "vector_dispatches",
    )

    def __init__(self, graph: Graph):
        n = graph.num_vertices
        self.n = n
        # The scalar loops iterate the graph's own neighbour tuples:
        # ``_rows[u]`` is ``None`` until the graph has built it, and
        # ``_neighbors(u)`` fills it in place, so every traversal of one
        # graph object shares the rows.
        self._rows = graph._rows
        self._neighbors = graph.neighbors
        # The CSR arrays back the vectorized kernels.
        self._nd_indptr, self._nd_indices = graph.csr_arrays()
        # Lazily allocated vector scratch, reused across calls: the
        # widened indptr, the full-BFS distance array, and the distance
        # and claim cells of the vector gain scan.
        self._nd_indptr64 = None
        self._nd_dist = None
        self._vec_dist = None
        self._vec_claim = None
        self._claim_tick = 1
        self._olds = [0] * n
        self._queue = [0] * n
        #: Vectorized kernel passes run so far: one per vector gain scan
        #: and one per bitset chunk of :meth:`first_round_gains`.
        self.vector_dispatches = 0

    # ------------------------------------------------------------------
    # Full BFS (CSR rebuilds of repro.paths.bfs)
    # ------------------------------------------------------------------
    def bfs_distances(self, source: int) -> list[int]:
        """Distances from ``source``; ``-1`` if unreachable."""
        return self._frontier_distances((source,))

    def multi_source_distances(self, sources: Iterable[int]) -> list[int]:
        """``dist[v] = min over s in sources of d(v, s)``; ``-1`` unreachable."""
        return self._frontier_distances(sources)

    def _indptr64(self):
        """``indptr`` as int64, widened once and cached (row math needs
        int64 to survive large cumsums)."""
        if self._nd_indptr64 is None:
            self._nd_indptr64 = self._nd_indptr.astype(_np.int64)
        return self._nd_indptr64

    def _dist_scratch(self):
        """The reusable full-BFS distance array, reset to all ``-1``."""
        dist = self._nd_dist
        if dist is None:
            dist = _np.empty(self.n, dtype=_np.int64)
            self._nd_dist = dist
        dist.fill(-1)
        return dist

    def _frontier_distances(self, sources: Iterable[int]) -> list[int]:
        """Vectorized level-synchronous BFS over the ndarray views.

        Per level: gather every frontier row with one fancy-index
        expansion, keep the unvisited targets, stamp their level.
        Distances are order-independent, so this equals the scalar FIFO
        kernel exactly.  The distance array and the widened ``indptr``
        are preallocated scratch reused across calls — the greedy round
        loops call this thousands of times, and the O(n) allocation per
        call used to dominate small-frontier queries.
        """
        indptr = self._indptr64()
        indices = self._nd_indices
        dist = self._dist_scratch()
        frontier = _np.unique(_np.fromiter(sources, dtype=_np.int64))
        if frontier.size == 0:
            return dist.tolist()
        dist[frontier] = 0
        level = 0
        while frontier.size:
            starts = indptr[frontier]
            counts = indptr[frontier + 1] - starts
            total = int(counts.sum())
            if total == 0:
                break
            cum = _np.cumsum(counts)
            slots = (
                _np.repeat(starts - (cum - counts), counts)
                + _np.arange(total, dtype=_np.int64)
            )
            targets = indices[slots]
            fresh = _np.unique(targets[dist[targets] == -1])
            if fresh.size == 0:
                break
            level += 1
            dist[fresh] = level
            frontier = fresh
        return dist.tolist()

    # ------------------------------------------------------------------
    # Vector gain scan: one pruned BFS, one numpy pass per level
    # ------------------------------------------------------------------
    def _vec_scratch(self):
        """The vector scan's ``(dist, claim)`` scratch, allocated once.

        ``dist`` holds ``n`` int32 cells, all ``-2`` between scans: each
        scan restores exactly the cells it touched, which keeps reuse
        O(touched) instead of O(n), and ~``4n`` bytes stay
        cache-resident.  ``claim`` backs the first-occurrence dedupe and
        is never cleaned: entries carry a monotone per-scatter tick, so
        a stale value from an earlier level or scan can never collide
        with the current pass's positions.
        """
        if self._vec_dist is None:
            size = max(1, self.n)
            self._vec_dist = _np.full(size, -2, dtype=_np.int32)
            self._vec_claim = _np.zeros(size, dtype=_np.int64)
        return self._vec_dist, self._vec_claim

    def _vector_scan(self, source: int, current):
        """Run the pruned BFS from ``source`` as one numpy pass per level.

        Returns ``(verts, news)``: exactly the vertices the scalar scan
        of :meth:`adaptive_eval` would emit, in the same order, with
        their new distances.  Levels concatenate level-major (FIFO
        order), and within a level the masked ragged ``np.repeat`` row
        gather visits (parent in frontier order) × (neighbor in row
        order) — the scalar discovery order — with same-level
        rediscoveries removed by keeping each vertex's *first*
        occurrence.

        The dedupe is linear, not a sort: every admitted occurrence
        scatters its stream position into the claim scratch *in
        reversed order* (so the first occurrence lands last and wins
        numpy's last-write-wins fancy assignment), then a gather keeps
        exactly the occurrences whose position made it in.
        ``np.unique`` here would re-sort the whole frontier expansion
        every level — O(T log T) on up to ``m`` keys — and measured 3x
        slower than the scalar loop at million-edge scale.

        ``current`` must be an int32 ndarray, and ``source`` must not be
        in the committed set (:meth:`adaptive_eval`'s scalar scan
        answers those without a hand-off).
        """
        self.vector_dispatches += 1
        indptr = self._indptr64()
        indices = self._nd_indices
        block, claim = self._vec_scratch()
        f = _np.array([source], dtype=_np.int64)
        block[source] = 0
        verts = [f]
        news = [_np.zeros(1, dtype=_np.int32)]
        level = 0
        while f.size:
            level += 1
            starts = indptr[f]
            counts = indptr[f + 1] - starts
            if not int(counts.sum()):
                break
            cum = _np.cumsum(counts)
            slots = _np.repeat(starts - (cum - counts), counts)
            slots += _np.arange(slots.size, dtype=_np.int64)
            # One explicit widening beats the intp cast every fancy
            # index below would otherwise redo.
            targets = indices[slots].astype(_np.int64, copy=False)
            # Scalar admission test: not yet seen by this scan, and
            # strictly closer than the committed-set distance.
            cur = current[targets]
            mask = (block[targets] == -2) & ((cur == -1) | (cur > level))
            if not mask.any():
                break
            targets = targets[mask]
            # Linear first-occurrence dedupe (see docstring).
            tick = self._claim_tick
            pos = _np.arange(tick, tick + targets.size, dtype=_np.int64)
            self._claim_tick = tick + targets.size
            claim[targets[::-1]] = pos[::-1]
            f = targets[claim[targets] == pos]
            block[f] = level
            verts.append(f)
            news.append(_np.full(f.size, level, dtype=_np.int32))
        verts = _np.concatenate(verts)
        # Restore the all-clean invariant for the next scan.
        block[verts] = -2
        return verts, _np.concatenate(news)

    def _vector_eval(self, source, current, objective, collect):
        """:meth:`_vector_scan` folded into ``(gain, updates)``, bitwise
        equal to the scalar fold of :meth:`adaptive_eval`.

        Closeness drops are integers, so their int64 sum converted once
        equals the scalar sum.  Harmonic terms (``1.0/new - old_term``)
        are elementwise, so numpy float64 reproduces CPython bit for
        bit; only the *sum* is order-sensitive, and it runs sequentially
        over the emission-ordered terms (:func:`_sequential_sum`).  Any
        other objective gets its ``gain_weight`` called per term, in
        emission order.
        """
        verts, news = self._vector_scan(source, current)
        olds = current[verts]
        kernel = getattr(objective, "csr_kernel", None)
        if kernel == "closeness":
            drops = _np.where(olds == -1, objective.penalty, olds) - news
            gain = float(drops.sum(dtype=_np.int64))
        elif kernel == "harmonic":
            inv_old = _np.zeros(olds.size, dtype=_np.float64)
            _np.divide(1.0, olds, out=inv_old, where=(olds != -1))
            inv_new = _np.zeros(news.size, dtype=_np.float64)
            _np.divide(1.0, news, out=inv_new, where=(news > 0))
            gain = _sequential_sum(inv_new - inv_old)
        else:
            weight = objective.gain_weight
            gain = 0.0
            for old, new in zip(olds.tolist(), news.tolist()):
                gain += weight(old, new)
        if not collect:
            return gain, None
        return gain, list(zip(verts.tolist(), news.tolist()))

    # ------------------------------------------------------------------
    # Adaptive single-candidate gain: scalar first, vector past a budget
    # ------------------------------------------------------------------
    def adaptive_eval(
        self,
        source: int,
        current: list[int],
        current_nd,
        objective,
        collect: bool = False,
        *,
        budget: int = SCAN_EDGE_BUDGET,
    ) -> tuple[float, Optional[list[tuple[int, int]]]]:
        """``(gain, updates)`` of adding ``source`` to the committed set
        whose distances are ``current``.

        ``current`` is ``d(v, S)`` as a list with ``n`` standing for
        "unreachable"; ``current_nd`` is the same distances as an int32
        ndarray with ``-1`` for unreachable (the vector scan's view).

        The scalar pruned BFS works on ``current`` itself: an admitted
        vertex is lowered in place and its old value saved in ``_olds``,
        aligned with ``_queue``.  BFS levels only grow, so a vertex this
        scan already lowered holds at most the next level, and one test
        per edge, ``current[v] > next_level``, both skips it and prunes
        the vertices the candidate does not move closer.  A single sweep
        over the emission order then folds the gain and restores
        ``current``.  The queue lists the improved vertices in exactly
        the order :func:`repro.paths.truncated.improvements` yields
        them, so the fold replays ``gain_weight`` term by term.

        ``budget`` caps the edge visits (the summed row lengths of the
        dequeued vertices): a scan that runs past it is abandoned,
        ``current`` restored, and the candidate re-run on the vector
        scan, whose per-level numpy passes win once a scan is large;
        both return the same ``(gain, updates)`` bit for bit.  A
        negative ``budget`` is no budget: the scan always finishes
        scalar and ``current_nd`` is never read, so
        ``adaptive_eval(u, current, None, objective, collect,
        budget=-1)`` is the scalar reference kernel.

        Objectives advertise a specialized fold via a ``csr_kernel``
        class attribute (``"closeness"`` carries its unreachable-penalty
        in a public ``penalty`` attribute); anything else is folded by
        calling ``objective.gain_weight`` per improvement, with ``-1``
        for an unreachable old distance.
        """
        n = self.n
        d = current
        if d[source] == 0:
            return 0.0, ([] if collect else None)  # source already in S
        if budget < 0:
            # No budget: a scan visits each row at most once, so it
            # never spends more than every edge.
            budget = len(self._nd_indices)
        rows = self._rows
        queue = self._queue
        olds = self._olds
        olds[0] = d[source]
        d[source] = 0
        queue[0] = source
        head, tail = 0, 1
        while head < tail:
            u = queue[head]
            head += 1
            next_level = d[u] + 1
            row = rows[u]
            if row is None:
                row = self._neighbors(u)
            budget -= len(row)
            if budget < 0:
                for i in range(tail):
                    d[queue[i]] = olds[i]
                return self._vector_eval(
                    source, current_nd, objective, collect
                )
            for v in row:
                if d[v] > next_level:
                    olds[tail] = d[v]
                    d[v] = next_level
                    queue[tail] = v
                    tail += 1
        updates = [(v, d[v]) for v in queue[:tail]] if collect else None
        kernel = getattr(objective, "csr_kernel", None)
        if kernel == "closeness":
            penalty = objective.penalty
            total = 0
            for i in range(tail):
                v = queue[i]
                old = olds[i]
                total += (penalty if old == n else old) - d[v]
                d[v] = old
            return float(total), updates
        if kernel == "harmonic":
            # The source (new distance 0) only removes its old term.
            old = olds[0]
            gain = 0.0 + -(0.0 if old == n else 1.0 / old)
            d[source] = old
            for i in range(1, tail):
                v = queue[i]
                old = olds[i]
                gain += 1.0 / d[v] - (0.0 if old == n else 1.0 / old)
                d[v] = old
            return gain, updates
        weight = objective.gain_weight
        gain = 0.0
        for i in range(tail):
            v = queue[i]
            old = olds[i]
            gain += weight(-1 if old == n else old, d[v])
            d[v] = old
        return gain, updates

    # ------------------------------------------------------------------
    # Round-0 kernel: bitset multi-source BFS, 64 sources per word
    # ------------------------------------------------------------------
    def first_round_gains(self, sources, objective) -> list[float]:
        """Empty-group gain of every source, bitwise equal to the scalar
        ``adaptive_eval(source, [n] * n, None, objective, budget=-1)``.

        With no committed set the pruned scan is a plain BFS, and every
        vertex a source reaches at level ``L`` contributes the same term
        ``gain_weight(-1, L)``.  So a lane's gain depends only on its
        level histogram ``c[L]``, and the scalar sequential fold over
        the emission stream is replayed per lane as ``0.0``, the source
        term, then ``c[1]`` copies of the level-1 term, and so on
        (:func:`_sequential_sum`); ``np.sum`` is pairwise and would
        drift from the scalar harmonic gain in the last bits.  Closeness
        terms are integers, so its lanes sum exactly in int64 and
        convert once, as the scalar does.

        The histograms come from :meth:`_level_histograms`, which runs
        all lanes of a chunk as one bit-parallel BFS.
        """
        sources = [int(s) for s in sources]
        if not sources:
            return []
        kernel = getattr(objective, "csr_kernel", None)
        if kernel == "harmonic":

            def term(level):
                return 1.0 / level if level else -0.0
        elif kernel != "closeness":
            weight = objective.gain_weight

            def term(level):
                return weight(-1, level)

        # Chunk lanes so one level's (2m, W) gather stays within the
        # cell budget.
        words = max(1, ROUND0_CELL_BUDGET // max(1, self._nd_indices.size))
        step = 64 * words
        gains: list[float] = []
        for lo in range(0, len(sources), step):
            hist = self._level_histograms(sources[lo : lo + step])
            if kernel == "closeness":
                levels = _np.arange(hist.shape[1], dtype=_np.int64)
                totals = hist @ (objective.penalty - levels)
                gains.extend(float(t) for t in totals.tolist())
                continue
            terms = _np.array([term(level) for level in range(hist.shape[1])])
            for counts in hist:
                gains.append(_sequential_sum(_np.repeat(terms, counts)))
        return gains

    def _level_histograms(self, sources):
        """Per-lane BFS level histograms, ``hist[b, L]`` = vertices at
        distance ``L`` from ``sources[b]`` (``hist[b, 0] == 1``).

        A bitset multi-source BFS (Then et al., VLDB 2015): each vertex
        carries a ``(W,)`` uint64 mask, bit ``b`` set when lane ``b``'s
        frontier or visited set holds it.  One level is a pull: gather
        every neighbor's frontier mask (``frontier[indices]``), OR each
        row's masks together with one ``np.bitwise_or.reduceat``, and
        keep the bits not yet visited.  The work per level is ``2m * W``
        word operations for 64 lanes per word, against ``2m`` Python-
        level edge visits per lane in the scalar scan.  Each level is a
        deadline checkpoint (:func:`repro.core.deadline.check`): one
        chunk can hold the whole round-0 pool.
        """
        self.vector_dispatches += 1
        n = self.n
        num_lanes = len(sources)
        width = (num_lanes + 63) // 64
        indptr = self._indptr64()
        indices = self._nd_indices
        rows = _np.flatnonzero(indptr[1:] > indptr[:-1])
        row_starts = indptr[rows]
        lanes = _np.arange(num_lanes, dtype=_np.int64)
        frontier = _np.zeros((n, width), dtype=_np.uint64)
        _np.bitwise_or.at(
            frontier,
            (_np.asarray(sources, dtype=_np.int64), lanes >> 6),
            _np.left_shift(_np.uint64(1), (lanes & 63).astype(_np.uint64)),
        )
        visited = frontier.copy()
        hist = [_np.ones(num_lanes, dtype=_np.int64)]
        while rows.size:
            check_deadline()
            reached = _np.zeros_like(frontier)
            reached[rows] = _np.bitwise_or.reduceat(
                frontier[indices], row_starts, axis=0
            )
            reached &= ~visited
            hit = _np.flatnonzero(reached.any(axis=1))
            if not hit.size:
                break
            visited[hit] |= reached[hit]
            # Per-lane popcount: unpack the reached rows to one byte per
            # lane bit (little-endian words: bit b of word w is column
            # 64*w + b) and count down the columns.
            bits = _np.unpackbits(
                reached[hit].astype("<u8", copy=False).view(_np.uint8),
                axis=1,
                bitorder="little",
            )
            hist.append(bits.sum(axis=0, dtype=_np.int64)[:num_lanes])
            frontier = reached
        return _np.stack(hist, axis=1)

