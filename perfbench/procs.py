"""Leave no process behind: adopt orphans, stop helpers, reap them all.

A run starts processes of its own (the ``repro-sky serve`` subprocess)
and the program starts helpers (``multiprocessing``'s resource tracker,
in this process and in the server).  A helper exits a moment after the
process that owns it, so without care one can still be alive when the
run has printed its result.  :func:`adopt_orphans` makes this process
the reaper of every descendant that loses its parent, and
:func:`reap_children` stops this process's own resource tracker and
waits until no child, adopted or not, is left.
"""

from __future__ import annotations

import ctypes
import os
import signal
import time

_PR_SET_PDEATHSIG = 1
_PR_SET_CHILD_SUBREAPER = 36


def _prctl(option: int, arg: int) -> None:
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(option, arg, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), f"prctl({option}) failed")


def adopt_orphans() -> None:
    """Make descendants that lose their parent children of this process."""
    _prctl(_PR_SET_CHILD_SUBREAPER, 1)


def die_with_parent() -> None:
    """``preexec_fn`` for a child: SIGTERM it when this process dies."""
    _prctl(_PR_SET_PDEATHSIG, signal.SIGTERM)


def _children() -> list[int]:
    me, pids = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # The command name is parenthesised and may hold spaces.
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            pids.append(int(entry))
    return pids


def _stop_resource_tracker() -> None:
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if tracker._fd is not None:
        tracker._stop()  # closes its pipe, then waits for it


def reap_children(timeout: float = 30.0) -> None:
    """Wait for every child; SIGKILL those still alive after ``timeout``."""
    _stop_resource_tracker()
    deadline = time.monotonic() + timeout
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            for child in _children():
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.01)
