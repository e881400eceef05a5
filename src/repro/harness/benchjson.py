"""Machine-readable benchmark trajectory: ``BENCH_skyline.json``.

The figure reports under ``benchmarks/reports/`` are for humans; this
module writes the same measurements as one JSON document at the repo
root so tooling (CI smoke checks, the README table renderer, future
regression tracking) can consume them without parsing tables.

Document shape (``schema`` version 1)::

    {
      "schema": 1,
      "entries": [
        {
          "bench": "refine_vector",           # producing benchmark
          "instance": "wikitalk_sim",          # registry dataset name
          "algorithm": "FilterRefineSkyBlock",
          "wall_s": 0.0123,                    # end-to-end wall time
          "refine_s": 0.0075,                  # refine phase only (opt.)
          "counters": {"pair_tests": ...},     # as_dict() sums (opt.)
          "extra": {"speedup_vs_bloom": 3.5}   # free-form (opt.)
        },
        ...
      ]
    }

Entries are keyed by ``(bench, instance, algorithm)``.  Merging a new
batch replaces *every* old entry of each ``(bench, instance)`` pair the
batch measured — so a leg a benchmark no longer runs drops out on its
next run — and carries over the entries of every other pair, so
benchmark modules can each contribute their slice without clobbering
one another, and a run over a subset of instances keeps the rest.
The entry list is kept sorted by key and floats are written as-is —
the file is deterministic for deterministic measurements, and
diff-friendly either way.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any, Iterable, Optional

__all__ = [
    "SCHEMA_VERSION",
    "bench_entry",
    "entry_key",
    "load_bench_json",
    "merge_entries",
    "validate_entry",
    "validate_file",
    "write_bench_json",
]

SCHEMA_VERSION = 1

#: Default document name, expected at the repository root.
BENCH_FILENAME = "BENCH_skyline.json"


def bench_entry(
    *,
    bench: str,
    instance: str,
    algorithm: str,
    wall_s: float,
    refine_s: Optional[float] = None,
    counters: Optional[dict] = None,
    extra: Optional[dict] = None,
) -> dict:
    """One measurement record, in the schema's entry shape."""
    entry: dict[str, Any] = {
        "bench": bench,
        "instance": instance,
        "algorithm": algorithm,
        "wall_s": wall_s,
    }
    if refine_s is not None:
        entry["refine_s"] = refine_s
    if counters:
        entry["counters"] = dict(counters)
    if extra:
        entry["extra"] = dict(extra)
    return entry


def entry_key(entry: dict) -> tuple[str, str, str]:
    """The identity under which an entry merges: bench/instance/algorithm."""
    return (entry["bench"], entry["instance"], entry["algorithm"])


def merge_entries(
    existing: Iterable[dict], new: Iterable[dict]
) -> list[dict]:
    """``new`` replaces every old entry of the ``(bench, instance)``
    pairs it holds; entries of other pairs carry over.  Sorted by key."""
    new = list(new)
    ran = {entry_key(e)[:2] for e in new}
    merged = {
        entry_key(e): e for e in existing if entry_key(e)[:2] not in ran
    }
    for e in new:
        merged[entry_key(e)] = e
    return [merged[k] for k in sorted(merged)]


def load_bench_json(path: str) -> list[dict]:
    """The entry list of an existing document (``[]`` if absent/alien).

    A document with an unexpected schema version is treated as absent
    rather than an error: the writer will replace it wholesale, which
    is the only sane upgrade path for a generated artifact.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError):
        return []
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA_VERSION:
        return []
    entries = doc.get("entries", [])
    return entries if isinstance(entries, list) else []


#: Entry keys the schema defines; anything else is a writer bug.
_REQUIRED_KEYS = ("bench", "instance", "algorithm")
_OPTIONAL_KEYS = ("refine_s", "counters", "extra")
_KNOWN_KEYS = frozenset(_REQUIRED_KEYS + ("wall_s",) + _OPTIONAL_KEYS)


def validate_entry(entry: Any, where: str = "entry") -> list[str]:
    """Schema problems of one entry, as human-readable strings.

    Empty list means valid.  ``where`` prefixes each message so
    :func:`validate_file` can point at the offending list index.
    """
    problems: list[str] = []
    if not isinstance(entry, dict):
        return [f"{where}: not an object"]
    for key in _REQUIRED_KEYS:
        value = entry.get(key)
        if not isinstance(value, str) or not value:
            problems.append(f"{where}: {key!r} must be a non-empty str")
    wall = entry.get("wall_s")
    if not isinstance(wall, (int, float)) or isinstance(wall, bool) or (
        wall != wall or wall < 0
    ):
        problems.append(f"{where}: 'wall_s' must be a number >= 0")
    refine = entry.get("refine_s")
    if refine is not None and (
        not isinstance(refine, (int, float))
        or isinstance(refine, bool)
        or refine != refine
        or refine < 0
    ):
        problems.append(f"{where}: 'refine_s' must be a number >= 0")
    for key in ("counters", "extra"):
        if key in entry and not isinstance(entry[key], dict):
            problems.append(f"{where}: {key!r} must be an object")
    unknown = set(entry) - _KNOWN_KEYS
    if unknown:
        problems.append(
            f"{where}: unknown keys {sorted(unknown)}"
        )
    return problems


def validate_file(path: str) -> list[str]:
    """Schema problems of a whole document (``[]`` means valid).

    Checks the envelope (``schema`` version, ``entries`` list), every
    entry via :func:`validate_entry`, and key uniqueness — duplicate
    ``(bench, instance, algorithm)`` keys mean a writer bypassed
    :func:`merge_entries`.  CI's smoke step calls this after the bench
    modules write, so a malformed document fails the build instead of
    silently poisoning the README table renderer.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        return [f"unreadable: {exc}"]
    except ValueError as exc:
        return [f"not JSON: {exc}"]
    if not isinstance(doc, dict):
        return ["document is not an object"]
    problems: list[str] = []
    if doc.get("schema") != SCHEMA_VERSION:
        problems.append(
            f"schema must be {SCHEMA_VERSION}, got {doc.get('schema')!r}"
        )
    entries = doc.get("entries")
    if not isinstance(entries, list):
        problems.append("'entries' must be a list")
        return problems
    unknown = set(doc) - {"schema", "entries"}
    if unknown:
        problems.append(f"unknown document keys {sorted(unknown)}")
    seen: dict[tuple, int] = {}
    for i, entry in enumerate(entries):
        entry_problems = validate_entry(entry, where=f"entries[{i}]")
        problems.extend(entry_problems)
        if not entry_problems:
            key = entry_key(entry)
            if key in seen:
                problems.append(
                    f"entries[{i}]: duplicate key {key} "
                    f"(first at entries[{seen[key]}])"
                )
            else:
                seen[key] = i
    return problems


def write_bench_json(path: str, entries: Iterable[dict]) -> list[dict]:
    """Merge ``entries`` into the document at ``path``; returns the result.

    The merge-then-replace is atomic (temp file + ``os.replace`` in the
    target directory), so a crashed benchmark run never leaves a
    half-written document behind.
    """
    merged = merge_entries(load_bench_json(path), entries)
    doc = {"schema": SCHEMA_VERSION, "entries": merged}
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(
        dir=directory, prefix=".bench_json_", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=False)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return merged
