"""Packed adjacency bitsets for the candidate set of the refine phase.

The refine phase of ``FilterRefineSky`` repeatedly asks "is every
neighbor of ``u`` (except one) adjacent to ``w``?".  The bloom path
answers per neighbor; this module answers per *word*: candidate
adjacency rows are packed into ``numpy`` ``uint64`` words so the whole
test collapses to ``(row_u & ~row_w).any()`` — one word-parallel
AND-NOT over ``⌈n/64⌉`` machine words, exact by construction (bit ``x``
of row ``u`` is set iff ``(u, x) ∈ E``, no hashing involved).

Memory model
------------
Rows are built **only for the candidate set** ``C`` of the filter
phase, so the matrix holds ``|C| · ⌈n/64⌉`` words — not the ``n²`` bits
of a full dense adjacency matrix.  The potential dominators the refine
scan tests are always filter-phase candidates themselves (every other
vertex fails the ``O(w) = w`` check), so candidate rows are the only
rows the kernel ever reads.

Bit layout: vertex ``x`` lives in word ``x >> 6``, bit ``x & 63`` —
little-endian within the row, so the raw row bytes read back as one
arbitrary-precision integer via ``int.from_bytes(..., "little")``.
:meth:`CandidateBitMatrix.int_rows` exposes exactly that: in CPython a
single big-int ``&`` over the same packed words beats a chain of numpy
calls for rows of a few hundred words (per-call dispatch overhead
dominates below ~10⁴ words), so the hot scan uses the int view while
numpy remains the storage, packing and shipping format.

``numpy`` is optional at runtime: :data:`HAVE_NUMPY` is ``False`` when
it is missing and callers (see :mod:`repro.core.bitset_refine`) fall
back to the bloom path.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.errors import ParameterError
from repro.graph.adjacency import Graph

try:  # pragma: no cover - exercised via HAVE_NUMPY gating tests
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

#: ``True`` when numpy is importable and packed matrices can be built.
HAVE_NUMPY = _np is not None

#: Rows packed per ``np.packbits`` batch — bounds the temporary boolean
#: buffer to ``PACK_CHUNK_ROWS * n`` bytes during construction.
PACK_CHUNK_ROWS = 256

__all__ = [
    "CandidateBitMatrix",
    "DEFAULT_WORD_BUDGET",
    "HAVE_NUMPY",
    "matrix_words",
    "validate_word_budget",
    "words_for_vertices",
]

#: Default dense/sparse cutover budget: 2²⁴ uint64 words = 128 MiB of
#: packed rows.  Shared by every refine entry point — this module is
#: the one home of the budget math (:func:`words_for_vertices` /
#: :func:`matrix_words` / :func:`validate_word_budget`).
DEFAULT_WORD_BUDGET = 1 << 24


def words_for_vertices(num_vertices: int) -> int:
    """Words per packed row: ``⌈n/64⌉``.

    >>> words_for_vertices(0), words_for_vertices(64), words_for_vertices(65)
    (0, 1, 2)
    """
    if num_vertices < 0:
        raise ParameterError(
            f"vertex count must be >= 0, got {num_vertices}"
        )
    return (num_vertices + 63) >> 6


def matrix_words(num_rows: int, num_vertices: int) -> int:
    """Total ``uint64`` words a packed matrix would occupy.

    This is the quantity the dense/sparse cutover heuristic of
    :func:`~repro.core.bitset_refine.filter_refine_bitset_sky` compares
    against its word budget — computable from ``|C|`` and ``n`` alone,
    before any packing happens.
    """
    if num_rows < 0:
        raise ParameterError(f"row count must be >= 0, got {num_rows}")
    return num_rows * words_for_vertices(num_vertices)


def validate_word_budget(word_budget: Optional[int]) -> int:
    """Resolve and validate a ``word_budget`` at the API/CLI boundary.

    ``None`` resolves to :data:`DEFAULT_WORD_BUDGET`.  Nonpositive
    budgets are rejected outright: a budget of zero used to route
    silently to the bloom fallback, which callers invariably meant as
    "pick the kernel for me" — that spelling is ``refine="auto"`` (or
    simply a small positive budget); a *parameter* that can never admit
    any matrix is a mistake worth surfacing.
    """
    if word_budget is None:
        return DEFAULT_WORD_BUDGET
    if word_budget <= 0:
        raise ParameterError(
            f"word_budget must be a positive number of uint64 words, "
            f"got {word_budget} (the bloom fallback is chosen "
            f"automatically whenever the packed matrix would exceed "
            f"the budget)"
        )
    return word_budget


class CandidateBitMatrix:
    """Adjacency rows of selected vertices, packed 64 neighbors per word.

    Build with :meth:`from_graph` (packs via ``np.packbits``).  Rows
    are indexed by *vertex id*
    through an internal position map; only the vertices the matrix was
    built for have rows.
    """

    __slots__ = ("num_vertices", "vertices", "rows", "_pos", "_ints", "_comps")

    def __init__(
        self,
        num_vertices: int,
        vertices: Sequence[int],
        rows,  # np.ndarray[(k, words), uint64]
    ):
        # Not part of the public API: use from_graph.
        self.num_vertices = num_vertices
        self.vertices = tuple(vertices)
        self.rows = rows
        self._pos = {u: i for i, u in enumerate(self.vertices)}
        self._ints: Optional[dict[int, int]] = None
        self._comps: Optional[dict[int, int]] = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_graph(
        cls, graph: Graph, vertices: Iterable[int]
    ) -> "CandidateBitMatrix":
        """Pack the adjacency rows of ``vertices`` (typically ``C``)."""
        if not HAVE_NUMPY:
            raise ParameterError(
                "CandidateBitMatrix requires numpy; gate on "
                "repro.graph.bitmatrix.HAVE_NUMPY before building"
            )
        verts = tuple(vertices)
        n = graph.num_vertices
        words = words_for_vertices(n)
        rows = _np.zeros((len(verts), words), dtype=_np.uint64)
        if not words or not verts:
            return cls(n, verts, rows)
        # packbits(bitorder="little") writes vertex x to byte x>>3,
        # bit x&7 — byte-for-byte the little-endian uint64 layout.
        bits = _np.zeros((PACK_CHUNK_ROWS, words * 64), dtype=bool)
        csr_arrays = getattr(graph, "csr_arrays", None)
        if csr_arrays is not None:
            # CSR substrate: one ragged gather + one fancy-index
            # scatter per chunk sets every bit of up to
            # PACK_CHUNK_ROWS rows at once — no per-row Python.
            indptr, indices = csr_arrays()
            indptr = _np.asarray(indptr).astype(_np.int64, copy=False)
            indices = _np.asarray(indices)
            vert_arr = _np.asarray(verts, dtype=_np.int64)
            for lo in range(0, len(verts), PACK_CHUNK_ROWS):
                chunk = vert_arr[lo : lo + PACK_CHUNK_ROWS]
                bits[: len(chunk)] = False
                lens = indptr[chunk + 1] - indptr[chunk]
                total = int(lens.sum())
                if total:
                    offsets = _np.arange(
                        total, dtype=_np.int64
                    ) - _np.repeat(_np.cumsum(lens) - lens, lens)
                    cols = indices[
                        _np.repeat(indptr[chunk], lens) + offsets
                    ]
                    row_ids = _np.repeat(
                        _np.arange(len(chunk), dtype=_np.int64), lens
                    )
                    bits[row_ids, cols] = True
                packed = _np.packbits(
                    bits[: len(chunk)], axis=1, bitorder="little"
                )
                rows[lo : lo + len(chunk)] = packed.view(_np.uint64)
        else:
            # List substrate: per-row scatter (a bare tuple would be
            # misread as a multi-dimensional index, hence the list()).
            for lo in range(0, len(verts), PACK_CHUNK_ROWS):
                chunk = verts[lo : lo + PACK_CHUNK_ROWS]
                bits[: len(chunk)] = False
                for i, u in enumerate(chunk):
                    nbrs = list(graph.neighbors(u))
                    if nbrs:
                        bits[i, nbrs] = True
                packed = _np.packbits(
                    bits[: len(chunk)], axis=1, bitorder="little"
                )
                rows[lo : lo + len(chunk)] = packed.view(_np.uint64)
        return cls(n, verts, rows)

    # ------------------------------------------------------------------
    # Row access
    # ------------------------------------------------------------------
    @property
    def word_count(self) -> int:
        """Words per row, ``⌈n/64⌉``."""
        return self.rows.shape[1]

    def memory_words(self) -> int:
        """Total words held — the budget-heuristic quantity, realized."""
        return self.rows.shape[0] * self.rows.shape[1]

    def has_row(self, u: int) -> bool:
        """``True`` iff a row was packed for vertex ``u``."""
        return u in self._pos

    def row(self, u: int):
        """The packed ``uint64`` row of vertex ``u`` (KeyError if absent)."""
        return self.rows[self._pos[u]]

    def subset_conflicts(self, u: int, w: int, exclude: Optional[int] = None):
        """Neighbors of ``u`` missing from ``N(w)``, as a packed word array.

        ``(row_u & ~row_w)`` with bit ``exclude`` cleared — the refine
        test ``N(u) \\ {exclude} ⊆ N(w)`` holds iff the result has no
        bit set (``not conflicts.any()``).
        """
        conflicts = self.rows[self._pos[u]] & ~self.rows[self._pos[w]]
        if exclude is not None and 0 <= exclude < self.num_vertices:
            conflicts[exclude >> 6] &= ~_np.uint64(1 << (exclude & 63))
        return conflicts

    # ------------------------------------------------------------------
    # Big-int views (the CPython-fast kernel representation)
    # ------------------------------------------------------------------
    def int_rows(self) -> dict[int, int]:
        """Each packed row as one arbitrary-precision integer.

        Bit ``x`` of ``int_rows()[u]`` is set iff ``x ∈ N(u)`` — the
        same words as :attr:`rows`, reinterpreted little-endian.  Cached
        after the first call.
        """
        if self._ints is None:
            raw = self.rows.tobytes()
            stride = self.word_count * 8
            self._ints = {
                u: int.from_bytes(raw[i * stride : (i + 1) * stride], "little")
                for i, u in enumerate(self.vertices)
            }
        return self._ints

    def complement_int_rows(self) -> dict[int, int]:
        """``~row`` per vertex, for the ``need & comp`` conflict test.

        Python's infinite-precision complement is safe here: ANDing the
        (negative) complement with a finite non-negative ``need`` mask
        yields exactly the finite conflict set.
        """
        if self._comps is None:
            self._comps = {u: ~x for u, x in self.int_rows().items()}
        return self._comps

    def __len__(self) -> int:
        return len(self.vertices)

    def __repr__(self) -> str:
        return (
            f"CandidateBitMatrix(rows={len(self.vertices)}, "
            f"words={self.word_count}, n={self.num_vertices})"
        )
