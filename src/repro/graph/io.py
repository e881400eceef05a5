"""Reading and writing graph files.

Three on-disk formats are supported, matching the sources the paper
draws its datasets from plus the package's own binary snapshots:

* **Plain edge lists** (SNAP style): one ``u v`` pair per line, ``#``
  comments, blank lines ignored.
* **KONECT ``out.*`` files**: identical except comment lines start with
  ``%`` and vertex IDs are 1-based.  :func:`read_edge_list` handles both
  via the ``comment`` and ``base`` parameters; :func:`read_konect` is the
  preconfigured convenience wrapper.
* **Binary CSR snapshots** (:mod:`repro.graph.binfmt`): raw
  ``indptr``/``indices`` bytes behind a magic header, opened via
  ``np.memmap`` with no parse.  :func:`load_graph` sniffs the magic and routes to the
  right reader, so callers never name the format.

Vertex IDs in a file may be sparse (e.g. ``{3, 17, 90}``); by default they
are compacted to ``0 .. n-1`` preserving numeric order, so that the
ID-based tie-break of Definition 2 stays deterministic.

Parsing is streaming: edges accumulate into one flat machine-typed
buffer as lines are read (no intermediate list of pair tuples, so peak
memory is the edge array itself), then the dedupe/compaction/CSR
assembly happens vectorized, straight into the graph's CSR arrays.

Hostile input fails with one :class:`~repro.errors.GraphFormatError`
naming the file and the 1-based line: bytes that are not UTF-8, IDs
that are not integers, negative or past the signed 64-bit range.
"""

from __future__ import annotations

import io
import os
from array import array
from typing import IO, Iterable, Union

import numpy as _np

from repro.errors import GraphFormatError
from repro.graph.adjacency import Graph

__all__ = ["load_graph", "read_edge_list", "read_konect", "write_edge_list"]

PathOrFile = Union[str, os.PathLike, IO[str]]

#: Largest vertex ID the parse buffer (``array("q")``) can hold.
MAX_VERTEX_ID = (1 << 63) - 1


def _open_for_read(source: PathOrFile) -> tuple[IO[str], bool]:
    if isinstance(source, (str, os.PathLike)):
        try:
            # Undecodable bytes survive as lone surrogates, so the parse
            # loop can name the line that holds them.
            return (
                open(source, "r", encoding="utf-8", errors="surrogateescape"),
                True,
            )
        except OSError as exc:
            raise GraphFormatError(
                f"{_source_label(source)}: {exc.strerror or exc}"
            ) from exc
    return source, False


def _source_label(source: PathOrFile) -> str:
    """A name for ``source`` usable in error messages.

    Paths render as themselves; file objects use their ``name`` when
    they have one (open files do, ``StringIO`` does not).
    """
    if isinstance(source, (str, os.PathLike)):
        return str(os.fspath(source))
    name = getattr(source, "name", None)
    return str(name) if name else "<edge list>"


def read_edge_list(
    source: PathOrFile,
    *,
    comment: str = "#",
    base: int = 0,
    compact: bool = True,
    allow_duplicates: bool = True,
) -> Graph:
    """Parse a whitespace-separated edge list into a :class:`Graph`.

    Parameters
    ----------
    source:
        A path or an open text file.
    comment:
        Lines starting with this prefix are skipped.
    base:
        Subtracted from every vertex ID (KONECT files are 1-based).
    compact:
        Relabel the IDs that actually occur to ``0 .. n-1`` in sorted
        order.  When ``False``, the largest ID determines ``n`` and
        unreferenced IDs become isolated vertices.
    allow_duplicates:
        Real-world dumps routinely repeat edges (and list both
        orientations); with the default ``True`` they are silently
        deduplicated.  Set to ``False`` to make repeats an error.

    Malformed rows raise :class:`GraphFormatError` naming the source
    file and the 1-based line number.
    """
    label = _source_label(source)
    fh, should_close = _open_for_read(source)
    # Streaming accumulation: one flat (u, v, u, v, ...) machine buffer,
    # never a Python list of pair tuples — peak memory is the buffer.
    endpoints = array("q")
    append = endpoints.append
    lineno = 0
    try:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii() and not _is_utf8(line):
                raise GraphFormatError(
                    f"{label}: line {lineno}: not valid UTF-8 text"
                )
            stripped = line.strip()
            if not stripped or stripped.startswith(comment):
                continue
            fields = stripped.split()
            if len(fields) < 2:
                raise GraphFormatError(
                    f"{label}: line {lineno}: expected two vertex ids, "
                    f"got {stripped!r}"
                )
            try:
                u, v = int(fields[0]) - base, int(fields[1]) - base
            except ValueError as exc:
                raise GraphFormatError(
                    f"{label}: line {lineno}: non-integer vertex id in "
                    f"{stripped!r}"
                ) from exc
            if u < 0 or v < 0:
                raise GraphFormatError(
                    f"{label}: line {lineno}: negative vertex id after "
                    f"applying base={base}"
                )
            if u > MAX_VERTEX_ID or v > MAX_VERTEX_ID:
                raise GraphFormatError(
                    f"{label}: line {lineno}: vertex id "
                    f"{max(u, v)} exceeds {MAX_VERTEX_ID}"
                )
            if u == v:
                # Self-loops appear in some raw dumps; the paper's model is
                # simple graphs, so they are dropped rather than fatal.
                continue
            append(u)
            append(v)
    except UnicodeDecodeError as exc:
        # A caller-opened text stream decodes in chunks, so the bad
        # bytes sit at or after the line after the last one read.
        raise GraphFormatError(
            f"{label}: line {lineno + 1}: not valid UTF-8 text"
        ) from exc
    finally:
        if should_close:
            fh.close()
    return _assemble_csr(endpoints, label, compact, allow_duplicates)


def _is_utf8(line: str) -> bool:
    """``False`` iff ``line`` carries surrogate-escaped (undecodable) bytes."""
    try:
        line.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _assemble_csr(
    endpoints: array, label: str, compact: bool, allow_duplicates: bool
) -> Graph:
    """Vectorized compaction + dedupe + CSR build of parsed endpoints."""
    flat = _np.frombuffer(endpoints, dtype=_np.int64)
    us, vs = flat[0::2], flat[1::2]
    if compact:
        ids = _np.unique(flat)
        n = len(ids)
        us = _np.searchsorted(ids, us)
        vs = _np.searchsorted(ids, vs)
    else:
        n = int(flat.max()) + 1 if len(flat) else 0
        if n >= 1 << 31:
            raise GraphFormatError(
                f"{label}: vertex id {n - 1} is past the int32 CSR range; "
                "load with compact=True"
            )
    # Orientation-normalize to scalar codes; unique = dedupe in one pass.
    lo = _np.minimum(us, vs)
    hi = _np.maximum(us, vs)
    codes, counts = _np.unique(lo * n + hi, return_counts=True)
    if not allow_duplicates and len(codes) != len(us):
        c = int(codes[_np.argmax(counts > 1)])
        raise GraphFormatError(
            f"{label}: duplicate edge ({c // n}, {c % n})"
        )
    return Graph.from_edge_arrays(n, codes // n, codes % n)


def read_konect(source: PathOrFile, **kwargs) -> Graph:
    """Parse a KONECT ``out.*`` file (``%`` comments, 1-based IDs)."""
    kwargs.setdefault("comment", "%")
    kwargs.setdefault("base", 1)
    return read_edge_list(source, **kwargs)


def load_graph(source: PathOrFile, **kwargs) -> Graph:
    """Load a graph from any supported on-disk format, auto-detected.

    Paths whose first bytes carry the binary magic open through
    :func:`~repro.graph.binfmt.read_binary_graph` (``kwargs`` would be
    meaningless there and are rejected); everything else — including
    open file objects — parses as edge-list text with ``kwargs``
    forwarded to :func:`read_edge_list`.
    """
    if isinstance(source, (str, os.PathLike)):
        from repro.graph.binfmt import is_binary_graph, read_binary_graph

        if is_binary_graph(source):
            if kwargs:
                raise GraphFormatError(
                    f"{_source_label(source)}: binary graphs take no "
                    f"parser options (got {sorted(kwargs)})"
                )
            return read_binary_graph(source)
    return read_edge_list(source, **kwargs)


def write_edge_list(graph: Graph, target: PathOrFile) -> None:
    """Write ``graph`` as a plain 0-based edge list, one edge per line."""
    if isinstance(target, (str, os.PathLike)):
        fh: IO[str] = open(target, "w", encoding="utf-8")
        should_close = True
    else:
        fh, should_close = target, False
    try:
        fh.write(f"# n={graph.num_vertices} m={graph.num_edges}\n")
        for u, v in graph.edges():
            fh.write(f"{u} {v}\n")
    finally:
        if should_close:
            fh.close()


def edges_to_string(edges: Iterable[tuple[int, int]]) -> str:
    """Render edges as edge-list text (handy in tests and examples)."""
    buf = io.StringIO()
    for u, v in edges:
        buf.write(f"{u} {v}\n")
    return buf.getvalue()
