"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError`, so
applications can catch one base class.  The subclasses separate the three
broad failure categories: malformed graph input, bad algorithm parameters
and unknown registry look-ups.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every exception raised by :mod:`repro`."""


class GraphFormatError(ReproError):
    """A graph could not be constructed or parsed.

    Raised for self-loops, duplicate edges, out-of-range endpoints,
    negative vertex counts and malformed edge-list files.
    """


class ParameterError(ReproError):
    """An algorithm was invoked with an invalid parameter value.

    Examples: a non-positive group size ``k``, a bloom-filter width that
    is not a positive multiple of the word size, or an unknown algorithm
    name passed to :func:`repro.core.api.neighborhood_skyline`.
    """


class DatasetNotFoundError(ReproError, KeyError):
    """An unknown dataset name was requested from the workload registry."""

    def __init__(self, name: str, known: tuple[str, ...]):
        self.name = name
        self.known = known
        super().__init__(
            f"unknown dataset {name!r}; known datasets: {', '.join(known)}"
        )
