"""Shortest-path substrate of the group-centrality applications.

Unweighted BFS distances underlie both group centrality measures (Defs.
6–9 of the paper).  This module holds every traversal the greedy
drivers and the centrality measures run, with ``-1``
(:data:`UNREACHED`) as the "unreachable" sentinel:

* :func:`bfs_distances` / :func:`multi_source_distances` — the full BFS
  from one source, or from a set ``S`` seeded at level 0 (``d(v, S)``);
* :func:`improvements` — the truncated gain BFS: the scalar reference
  the eager driver (:func:`repro.centrality.greedy.greedy_maximize`)
  runs and every gain kernel is tested against;
* :class:`CSRTraversal` — the gain kernels of the lazy (CELF) driver.

**Truncated BFS.**  Adding ``u`` to a group ``S`` only matters for the
vertices it moves closer, so :func:`improvements` expands a vertex only
while its new distance undercuts ``d(v, S)``.  The pruning is sound:
BFS levels grow by one per hop while ``d(v, S)`` drops by at most one
(it is 1-Lipschitz along edges), so once ``new >= d(v, S)`` nothing
further along that branch improves either.

**Gain kernels.**  The drivers score thousands of candidates per run,
so :class:`CSRTraversal` drops the generator's per-call overheads (a
fresh ``new_dist`` list and deque, a suspension and tuple per improved
vertex, a ``gain_weight`` call per term).  Built once per run, it reads
the graph's own neighbour tuples (filled on first use and kept, so
later traversals of the same graph reuse them) for the scalar loops,
the graph's zero-copy ``int32`` CSR arrays for the vector kernels, and
reuses two scratch lists: ``queue``, whose prefix after a scan lists
the improved vertices **in the exact order** :func:`improvements`
yields them, and ``olds``, each queued vertex's distance before it.

The kernels fold the two objectives tagged ``csr_kernel``, closeness
and harmonic; the lazy driver rejects any other.  Gains are float sums
and float addition is not associative, so each fold replays
:func:`improvements` + ``gain_weight`` term by term in emission order:
closeness sums integer farness drops (exact either way), harmonic adds
``1.0/new - old_term`` exactly as
:class:`~repro.centrality.group_harmonic_max.HarmonicObjective` does.

**One-array scalar scan.**  :meth:`CSRTraversal.adaptive_eval` lowers
the committed distance list in place (``n`` for "unreachable"), so one
comparison per edge both skips vertices this scan reached and prunes
those the candidate does not move closer; one sweep over ``queue`` then
folds the gain and restores the list from ``olds``.

**Vector gain scan.**  :meth:`CSRTraversal._vector_scan` runs one
pruned BFS as one numpy pass per level and still reproduces the scalar
emission order: the ragged ``np.repeat`` row gather visits parents in
frontier order and neighbours in row order — the scalar FIFO discovery
order — so keeping each vertex's *first* occurrence (a linear reversed
scatter-claim, not a sort) leaves every level's sequence identical.
:meth:`CSRTraversal._vector_eval` then sums closeness drops in int64
and adds the elementwise harmonic terms sequentially in emission order.

**Adaptive kernel.**  After round 0 most scans touch only a few
vertices, where the vector scan's ~10 numpy calls per level cost more
than the scalar loop.  :meth:`CSRTraversal.adaptive_eval` runs the
scalar scan under an edge-visit budget (:data:`SCAN_EDGE_BUDGET`, read
at call time) and hands only scans past it to the vector scan.

**Round-0 kernel.**  Against an empty group every vertex at level ``L``
contributes the same term, so :meth:`CSRTraversal.first_round_gains`
needs only each source's level histogram, and gets them all from one
bitset multi-source BFS — 64 sources per machine word, one gather and
one ``bitwise_or.reduceat`` per level.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator, Optional

import numpy as _np

from repro.core.deadline import check as check_deadline
from repro.graph.adjacency import Graph

__all__ = [
    "UNREACHED",
    "bfs_distances",
    "multi_source_distances",
    "improvements",
    "CSRTraversal",
]

UNREACHED = -1

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


def bfs_distances(graph: Graph, source: int) -> list[int]:
    """Distances from ``source`` to every vertex; ``-1`` if unreachable."""
    dist = [UNREACHED] * graph.num_vertices
    dist[source] = 0
    queue = deque((source,))
    neighbors = graph.neighbors
    while queue:
        u = queue.popleft()
        next_level = dist[u] + 1
        for v in neighbors(u):
            if dist[v] == UNREACHED:
                dist[v] = next_level
                queue.append(v)
    return dist


def multi_source_distances(graph: Graph, sources: Iterable[int]) -> list[int]:
    """``dist[v] = min over s in sources of d(v, s)``; ``-1`` unreachable.

    An empty source set yields all ``-1``.
    """
    dist = [UNREACHED] * graph.num_vertices
    queue: deque[int] = deque()
    for s in sources:
        if dist[s] != 0:
            dist[s] = 0
            queue.append(s)
    neighbors = graph.neighbors
    while queue:
        u = queue.popleft()
        next_level = dist[u] + 1
        for v in neighbors(u):
            if dist[v] == UNREACHED:
                dist[v] = next_level
                queue.append(v)
    return dist


def improvements(
    graph: Graph,
    source: int,
    current: list[int],
) -> Iterator[tuple[int, int, int]]:
    """Yield ``(v, old, new)`` for each vertex ``source`` moves closer.

    ``current[v]`` is ``d(v, S)`` (``-1``: unreachable).  The stream
    holds every ``v``, ``source`` first, with ``d(v, S ∪ {source}) <
    d(v, S)``, in BFS discovery order; the caller folds it into its
    gain (closeness ``old - new``, harmonic ``1/new - 1/old``).
    """
    n = graph.num_vertices
    # Tentative new distances; -2 = untouched in this traversal.
    new_dist = [-2] * n
    cur_src = current[source]
    if cur_src != -1 and cur_src <= 0:
        return  # source already in S (distance 0): nothing can improve
    new_dist[source] = 0
    yield (source, cur_src, 0)
    queue = deque((source,))
    neighbors = graph.neighbors
    while queue:
        u = queue.popleft()
        next_level = new_dist[u] + 1
        for v in neighbors(u):
            if new_dist[v] != -2:
                continue
            cur = current[v]
            if cur != -1 and cur <= next_level:
                # No improvement here, and (by the Lipschitz argument)
                # none further along this branch either.
                continue
            new_dist[v] = next_level
            yield (v, cur, next_level)
            queue.append(v)


class CSRTraversal:
    """Reusable BFS workspace over the CSR arrays of one graph.

    Instances are cheap to query but stateful: the scratch buffers are
    reused by every call, so a single traversal must finish before the
    next one starts (no interleaving, no sharing across threads).  The
    gain kernels take an objective whose ``csr_kernel`` tag is
    ``"closeness"`` (with its unreachable penalty in a public
    ``penalty`` attribute) or ``"harmonic"``.
    """

    __slots__ = (
        "n",
        "_rows",
        "_neighbors",
        "_nd_indptr",
        "_nd_indices",
        "_nd_indptr64",
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
        # widened indptr, and the distance and claim cells of the
        # vector gain scan.
        self._nd_indptr64 = None
        self._vec_dist = None
        self._vec_claim = None
        self._claim_tick = 1
        self._olds = [0] * n
        self._queue = [0] * n
        #: Vectorized kernel passes run so far: one per vector gain scan
        #: and one per bitset chunk of :meth:`first_round_gains`.
        self.vector_dispatches = 0

    def _indptr64(self):
        """``indptr`` as int64, widened once and cached (row math needs
        int64 to survive large cumsums)."""
        if self._nd_indptr64 is None:
            self._nd_indptr64 = self._nd_indptr.astype(_np.int64)
        return self._nd_indptr64

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
        over the emission-ordered terms (:func:`_sequential_sum`).
        """
        verts, news = self._vector_scan(source, current)
        olds = current[verts]
        if objective.csr_kernel == "closeness":
            drops = _np.where(olds == -1, objective.penalty, olds) - news
            gain = float(drops.sum(dtype=_np.int64))
        else:
            inv_old = _np.zeros(olds.size, dtype=_np.float64)
            _np.divide(1.0, olds, out=inv_old, where=(olds != -1))
            inv_new = _np.zeros(news.size, dtype=_np.float64)
            _np.divide(1.0, news, out=inv_new, where=(news > 0))
            gain = _sequential_sum(inv_new - inv_old)
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
    ) -> tuple[float, Optional[list[tuple[int, int]]]]:
        """``(gain, updates)`` of adding ``source`` to the committed set
        whose distances are ``current``.

        ``current`` is ``d(v, S)`` as a list with ``n`` standing for
        "unreachable"; ``current_nd`` is the same distances as an int32
        ndarray with ``-1`` for unreachable (the vector scan's view).

        The scalar pruned BFS lowers each admitted vertex of ``current``
        in place and saves its old value in ``_olds``, aligned with
        ``_queue``; BFS levels only grow, so one test per edge,
        ``current[v] > next_level``, both skips vertices already lowered
        and prunes those the candidate does not move closer.  One sweep
        over the queue (the :func:`improvements` order) then folds the
        gain term by term and restores ``current``.

        :data:`SCAN_EDGE_BUDGET`, read at call time, caps the edge
        visits (summed row lengths of the dequeued vertices): a scan
        past it is abandoned, ``current`` restored, and the candidate
        re-run on the vector scan, which returns the same ``(gain,
        updates)`` bit for bit.  At ``sys.maxsize`` no scan hands off
        and ``current_nd`` is never read.
        """
        n = self.n
        d = current
        if d[source] == 0:
            return 0.0, ([] if collect else None)  # source already in S
        budget = SCAN_EDGE_BUDGET
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
        if objective.csr_kernel == "closeness":
            penalty = objective.penalty
            total = 0
            for i in range(tail):
                v = queue[i]
                old = olds[i]
                total += (penalty if old == n else old) - d[v]
                d[v] = old
            return float(total), updates
        # Harmonic.  The source (new distance 0) only removes its old
        # term.
        old = olds[0]
        gain = 0.0 + -(0.0 if old == n else 1.0 / old)
        d[source] = old
        for i in range(1, tail):
            v = queue[i]
            old = olds[i]
            gain += 1.0 / d[v] - (0.0 if old == n else 1.0 / old)
            d[v] = old
        return gain, updates

    # ------------------------------------------------------------------
    # Round-0 kernel: bitset multi-source BFS, 64 sources per word
    # ------------------------------------------------------------------
    def first_round_gains(self, sources, objective) -> list[float]:
        """Empty-group gain of every source, bitwise equal to the scalar
        ``adaptive_eval(source, [n] * n, None, objective)`` fold.

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
        closeness = objective.csr_kernel == "closeness"
        # Chunk lanes so one level's (2m, W) gather stays within the
        # cell budget.
        words = max(1, ROUND0_CELL_BUDGET // max(1, self._nd_indices.size))
        step = 64 * words
        gains: list[float] = []
        for lo in range(0, len(sources), step):
            hist = self._level_histograms(sources[lo : lo + step])
            if closeness:
                levels = _np.arange(hist.shape[1], dtype=_np.int64)
                totals = hist @ (objective.penalty - levels)
                gains.extend(float(t) for t in totals.tolist())
                continue
            # Harmonic: level L adds 1/L, the source -0.0.
            terms = [1.0 / lv if lv else -0.0 for lv in range(hist.shape[1])]
            terms = _np.array(terms)
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

