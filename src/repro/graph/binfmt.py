"""On-disk binary CSR graph format with memmap loading.

Text edge lists cost a full parse — integer conversion, dedup, CSR
assembly — every time a graph is opened.  For the million-edge workload
tier that parse dominates end-to-end benchmark time, so converted
graphs are stored as raw CSR bytes that :func:`read_binary_graph` maps
straight into a :class:`~repro.graph.adjacency.Graph` via ``np.memmap``:
opening costs no parse and no copy, only one vectorized validation pass
over the arrays.

Layout (all fields little-endian)::

    offset  size              field
    0       4                 magic  b"RSKY"
    4       4                 format version (uint32; currently 1)
    8       8                 n  (uint64, vertex count)
    16      8                 m  (uint64, undirected edge count)
    24      4*(n+1)           indptr   (int32)
    24+...  4*(2*m)           indices  (int32, rows sorted ascending)

The arrays are exactly the ``int32`` pair :meth:`~repro.graph.adjacency.
Graph.csr_arrays` exposes, so ``write → read`` round-trips to an
identical graph and a memmap-loaded graph feeds the vectorized filter
phase, the refine kernels and the traversal kernels without any
conversion.

Every load validates the magic, version, declared counts and the file
size they imply, that ``indptr`` runs from 0 to ``2m`` without
decreasing, that every index names a vertex in ``[0, n)``, that every
row is strictly increasing and loop-free, and that every edge is
stored in both directions; a truncated or corrupted file raises
:class:`~repro.errors.GraphFormatError` naming the path and the
specific mismatch, never a numpy shape error downstream.
"""

from __future__ import annotations

import os
import struct
from typing import Union

import numpy as _np

from repro.errors import GraphFormatError
from repro.graph.adjacency import Graph

__all__ = [
    "BINARY_MAGIC",
    "BINARY_VERSION",
    "is_binary_graph",
    "read_binary_graph",
    "write_binary_graph",
]

PathLike = Union[str, os.PathLike]

#: First four bytes of every binary graph file.
BINARY_MAGIC = b"RSKY"

#: Current format version; bumped on any layout change.
BINARY_VERSION = 1

_HEADER = struct.Struct("<4sIQQ")


def is_binary_graph(path: PathLike) -> bool:
    """``True`` iff ``path`` starts with the binary-graph magic.

    Used by the sniffing loader (:func:`repro.graph.io.load_graph`) to
    route between formats; unreadable paths simply report ``False`` and
    let the text loader surface the real error.
    """
    try:
        with open(path, "rb") as fh:
            return fh.read(len(BINARY_MAGIC)) == BINARY_MAGIC
    except OSError:
        return False


def write_binary_graph(graph: Graph, path: PathLike) -> int:
    """Serialize ``graph`` to ``path``; returns the bytes written.

    The graph's own CSR arrays are written as they are.  Writes are
    atomic-ish: data lands in ``path + ".tmp"`` and is renamed over the
    target, so a crashed convert never leaves a half-written file that
    still carries a valid magic.
    """
    indptr, indices = graph.csr_arrays()
    header = _HEADER.pack(
        BINARY_MAGIC, BINARY_VERSION, graph.num_vertices, graph.num_edges
    )
    tmp = os.fspath(path) + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(header)
        fh.write(memoryview(indptr).cast("B"))
        fh.write(memoryview(indices).cast("B"))
        fh.flush()
        os.fsync(fh.fileno())
        total = fh.tell()
    os.replace(tmp, os.fspath(path))
    return total


def read_binary_graph(path: PathLike) -> Graph:
    """Open a binary graph as a memmap-backed :class:`Graph`.

    The arrays are read-only ``np.memmap`` views — nothing is copied at
    open time.  Validation reads both arrays once (linear in the file,
    a few milliseconds per million edges); the OS pages the data in
    on demand.  The returned graph keeps the mapping alive for its
    lifetime.
    """
    label = os.fspath(path)
    try:
        size = os.path.getsize(path)
        with open(path, "rb") as fh:
            head = fh.read(_HEADER.size)
    except OSError as exc:
        raise GraphFormatError(
            f"{label}: {exc.strerror or exc}"
        ) from exc
    if len(head) < _HEADER.size:
        raise GraphFormatError(
            f"{label}: truncated header ({len(head)} bytes, "
            f"need {_HEADER.size})"
        )
    magic, version, n, m = _HEADER.unpack(head)
    if magic != BINARY_MAGIC:
        raise GraphFormatError(
            f"{label}: bad magic {magic!r}; not a binary graph file"
        )
    if version != BINARY_VERSION:
        raise GraphFormatError(
            f"{label}: unsupported format version {version} "
            f"(this build reads version {BINARY_VERSION})"
        )
    if 2 * m >= 1 << 31:
        raise GraphFormatError(
            f"{label}: edge count {m} exceeds the int32 index range"
        )
    expected = _HEADER.size + 4 * (n + 1) + 4 * (2 * m)
    if size != expected:
        raise GraphFormatError(
            f"{label}: file holds {size} bytes but the header declares "
            f"n={n}, m={m} ({expected} bytes) — truncated or corrupt"
        )
    indptr = _np.memmap(
        label, dtype=_np.int32, mode="r", offset=_HEADER.size, shape=(n + 1,)
    )
    if m:
        indices = _np.memmap(
            label,
            dtype=_np.int32,
            mode="r",
            offset=_HEADER.size + 4 * (n + 1),
            shape=(2 * m,),
        )
    else:
        # mmap rejects zero-length windows; an edgeless graph needs none.
        indices = _np.zeros(0, dtype=_np.int32)
    if int(indptr[0]) != 0 or int(indptr[n]) != 2 * m:
        raise GraphFormatError(
            f"{label}: indptr endpoints ({int(indptr[0])}, "
            f"{int(indptr[n])}) do not match the declared 2m={2 * m} — "
            "corrupt index"
        )
    # One vectorized pass over each array (about 2 ms per million
    # indices): every row range must be well-formed and every neighbor
    # a vertex, or the kernels would index out of bounds — or, for a
    # negative ID, silently wrap around and answer.
    # Compare, do not subtract: an int32 difference can wrap around.
    drops = _np.flatnonzero(indptr[1:] < indptr[:-1])
    if drops.size:
        u = int(drops[0])
        raise GraphFormatError(
            f"{label}: indptr decreases at vertex {u} "
            f"({int(indptr[u])} > {int(indptr[u + 1])}) — corrupt index"
        )
    if m and (int(indices.min()) < 0 or int(indices.max()) >= n):
        pos = int(_np.flatnonzero((indices < 0) | (indices >= n))[0])
        raise GraphFormatError(
            f"{label}: neighbor index {int(indices[pos])} at entry {pos} "
            f"is outside [0, {n}) — corrupt index"
        )
    if m:
        _check_rows_and_symmetry(label, n, indptr, indices)
    return Graph.from_arrays(indptr, indices)


def _check_rows_and_symmetry(label, n, indptr, indices) -> None:
    """Reject unsorted rows, loops and one-way edges.

    The kernels trust the CSR snapshot (:meth:`Graph.from_arrays`),
    so a row out of order or an edge stored in one direction only would
    be answered silently — and a skyline verifier reading the same
    adjacency would agree with it.  With edge keys ``u*n + v`` in file
    order, every row is strictly increasing iff the keys are (a row
    break adds ``n``, more than any in-row gap), and then the edge set
    is symmetric iff the sorted reversed keys ``v*n + u`` equal the
    keys: one sort, ~15x cheaper here than a ``searchsorted`` of the
    unsorted reversed keys, which runs only to name a one-way edge.
    """
    # int32 keys while n*n fits: they halve the sort's memory traffic.
    key = _np.int32 if n * n < 1 << 31 else _np.int64
    rows = _np.repeat(_np.arange(n, dtype=key), _np.diff(indptr))
    cols = indices.astype(key, copy=False)
    keys = rows * n + cols
    drops = _np.flatnonzero(_np.diff(keys) <= 0)
    if drops.size:
        pos = int(drops[0]) + 1
        raise GraphFormatError(
            f"{label}: row {int(rows[pos])} is not strictly increasing at "
            f"entry {pos} ({int(indices[pos - 1])} then "
            f"{int(indices[pos])}) — corrupt index"
        )
    loops = _np.flatnonzero(rows == cols)
    if loops.size:
        raise GraphFormatError(
            f"{label}: self-loop at vertex {int(rows[loops[0]])} — "
            "corrupt index"
        )
    reverse = cols * n + rows
    if not _np.array_equal(_np.sort(reverse), keys):
        pos = _np.minimum(_np.searchsorted(keys, reverse), keys.size - 1)
        i = int(_np.flatnonzero(keys[pos] != reverse)[0])
        u, v = int(rows[i]), int(cols[i])
        raise GraphFormatError(
            f"{label}: edge ({u}, {v}) has no reverse entry ({v}, {u}) — "
            "adjacency is not symmetric"
        )
