"""Resumable benchmark runs: an atomic journal of completed cells.

A long sweep (the CLI ``sweep`` command, ``benchmarks/smoke_large.py``)
is a grid of ``(dataset, algorithm, trial)`` cells.  Dying at cell 7
of 9 must not cost the first six: drivers journal each finished cell
into a small JSON document, and a restarted run skips every cell the
journal already holds — reusing the recorded measurements so the final
report equals the uninterrupted one.

The write is crash-safe the same way ``BENCH_skyline.json`` is
(temp file + ``os.replace`` in the target directory): a run killed
mid-write leaves either the previous journal or the new one, never a
torn file.  One record per completed cell, written *after* the cell's
work — a kill can lose at most the in-flight cell.

Document shape (``schema`` version 1)::

    {
      "schema": 1,
      "cells": [
        {
          "dataset": "wikitalk_sim",
          "algorithm": "filter_refine",
          "trial": 0,
          "wall_s": 12.7,            # optional measurement
          "extra": {"skyline_size": 3021}   # optional free-form
        },
        ...
      ]
    }
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any, Optional

from repro.errors import ParameterError

__all__ = ["CheckpointJournal", "CHECKPOINT_SCHEMA_VERSION"]

CHECKPOINT_SCHEMA_VERSION = 1

Cell = tuple[str, str, int]


def _atomic_write_json(path: str, doc: dict) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(
        dir=directory, prefix=".checkpoint_", suffix=".tmp"
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


class CheckpointJournal:
    """Journal of completed ``(dataset, algorithm, trial)`` cells.

    Missing file → empty journal (first run).  An unreadable or
    alien-schema file raises :class:`~repro.errors.ParameterError`
    instead of being silently discarded: a checkpoint the user pointed
    at is *their* data, and clobbering it on a typo would defeat the
    whole point of resumability.
    """

    def __init__(self, path: str):
        self.path = path
        self._cells: dict[Cell, dict] = {}
        self._load()

    def _load(self) -> None:
        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except FileNotFoundError:
            return
        except (OSError, ValueError) as exc:
            raise ParameterError(
                f"checkpoint file {self.path!r} is not readable JSON: {exc}"
            ) from exc
        if (
            not isinstance(doc, dict)
            or doc.get("schema") != CHECKPOINT_SCHEMA_VERSION
            or not isinstance(doc.get("cells"), list)
        ):
            raise ParameterError(
                f"checkpoint file {self.path!r} is not a schema-"
                f"{CHECKPOINT_SCHEMA_VERSION} checkpoint journal"
            )
        for record in doc["cells"]:
            try:
                key = (
                    str(record["dataset"]),
                    str(record["algorithm"]),
                    int(record["trial"]),
                )
            except (TypeError, KeyError, ValueError) as exc:
                raise ParameterError(
                    f"checkpoint file {self.path!r} holds a malformed "
                    f"cell record: {record!r}"
                ) from exc
            self._cells[key] = dict(record)

    # -- queries -------------------------------------------------------
    def __len__(self) -> int:
        return len(self._cells)

    def is_done(self, dataset: str, algorithm: str, trial: int) -> bool:
        """``True`` iff this cell is already journaled as completed."""
        return (dataset, algorithm, int(trial)) in self._cells

    def get(
        self, dataset: str, algorithm: str, trial: int
    ) -> Optional[dict]:
        """The recorded cell (a copy), or ``None`` when not journaled."""
        record = self._cells.get((dataset, algorithm, int(trial)))
        return None if record is None else dict(record)

    def cells(self) -> list[dict]:
        """All records, sorted by ``(dataset, algorithm, trial)`` key."""
        return [dict(self._cells[k]) for k in sorted(self._cells)]

    # -- mutation ------------------------------------------------------
    def mark_done(
        self,
        dataset: str,
        algorithm: str,
        trial: int,
        *,
        wall_s: Optional[float] = None,
        **extra: Any,
    ) -> dict:
        """Journal one completed cell and flush atomically to disk.

        Re-marking an existing cell replaces it (a deliberate re-run
        updates in place).  Returns the stored record.
        """
        record: dict[str, Any] = {
            "dataset": dataset,
            "algorithm": algorithm,
            "trial": int(trial),
        }
        if wall_s is not None:
            record["wall_s"] = float(wall_s)
        if extra:
            record["extra"] = dict(extra)
        self._cells[(dataset, algorithm, int(trial))] = record
        self.flush()
        return dict(record)

    def flush(self) -> None:
        """Write the journal to :attr:`path` (temp file + atomic replace)."""
        doc = {
            "schema": CHECKPOINT_SCHEMA_VERSION,
            "cells": self.cells(),
        }
        _atomic_write_json(self.path, doc)
