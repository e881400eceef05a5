"""Cooperative per-thread deadlines for long library calls.

A served query runs on one engine thread and must stop at its deadline
instead of computing on after its caller gave up.  Python cannot stop
a thread from outside, so the long loops cooperate: they call
:func:`check` at coarse boundaries — each greedy round, each BFS
level of greedy round 0, each clique root searched, each budget slice
of the block refine — and :func:`check` raises
:class:`DeadlineExceeded` once the calling thread's deadline has
passed.

No library function takes a deadline parameter.  The caller that owns
the thread (the serving supervisor) wraps the call in
:func:`deadline`; every other caller never sets one, and then
:func:`check` is one thread-local attribute read.

>>> with deadline(60.0):
...     check()  # well inside the deadline: returns
>>> check()  # no deadline set on this thread: returns
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Iterator, Optional

from repro.errors import ReproError

__all__ = ["DeadlineExceeded", "check", "deadline"]


class DeadlineExceeded(ReproError):
    """The calling thread's deadline passed at a :func:`check` point."""


class _ThreadDeadline(threading.local):
    #: Monotonic time the deadline passes; ``None`` = no deadline.
    at: Optional[float] = None


_local = _ThreadDeadline()


def check() -> None:
    """Raise :class:`DeadlineExceeded` if this thread's deadline passed."""
    at = _local.at
    if at is not None and time.monotonic() >= at:
        raise DeadlineExceeded(
            f"deadline passed {time.monotonic() - at:.3f}s ago"
        )


@contextmanager
def deadline(seconds: Optional[float]) -> Iterator[None]:
    """Give the calling thread ``seconds`` from now; ``None`` = no limit.

    The previous deadline (if any) is restored on exit.
    """
    previous = _local.at
    _local.at = None if seconds is None else time.monotonic() + seconds
    try:
        yield
    finally:
        _local.at = previous
