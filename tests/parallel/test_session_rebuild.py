"""Close/rebuild cycles of :class:`EngineSession`.

The serve supervisor heals a failed graph by closing its session and
building a fresh one; every rebuilt session must answer bit-for-bit
what the first one did.
"""

from __future__ import annotations

from repro.core.api import EngineSession
from repro.workloads import load


def test_close_rebuild_cycle_is_hygienic():
    """The supervisor's heal loop: close, rebuild, repeat."""
    graph = load("karate")
    baseline = None
    for _ in range(3):
        session = EngineSession(graph)
        assert not session.cached
        result = session.refine_sky()
        if baseline is None:
            baseline = result
        assert result.skyline == baseline.skyline
        assert result.dominator == baseline.dominator
        assert result.candidates == baseline.candidates
        session.close()
        # Between a teardown and the next build nothing is held.
        assert not session.cached
