"""EngineSession semantics: a per-graph cache of the default skyline.

The module keeps the path it had when the session also owned a worker
pool.  The contracts under test:

* **Compute once** — the first :meth:`EngineSession.refine_sky` runs
  the default (``algorithm="auto"``) skyline and fills ``counters``;
  later calls return the same :class:`SkylineResult` and count nothing.
* **Bit-for-bit** — the cached result equals the sequential
  FilterRefineSky skyline, dominator and candidate set.
* **Lifecycle** — ``close()`` is idempotent; ``workers`` accepts only 1.
"""

import pytest

from repro.core.api import EngineSession, engine_session, neighborhood_skyline
from repro.core.counters import SkylineCounters
from repro.core.filter_refine import filter_refine_sky
from repro.errors import ParameterError
from repro.serve.registry import GraphRegistry


def test_session_refine_cold_then_warm(karate):
    seq = filter_refine_sky(karate)
    direct_counters = SkylineCounters()
    neighborhood_skyline(karate, counters=direct_counters)
    with EngineSession(karate) as session:
        assert not session.cached
        results = []
        work = []
        for _ in range(3):
            counters = SkylineCounters()
            result = session.refine_sky(counters=counters)
            assert result.skyline == seq.skyline
            assert result.dominator == seq.dominator
            assert result.candidates == seq.candidates
            assert session.cached
            results.append(result)
            work.append(counters.pair_tests)
        # The first call does the work of one direct call; the later
        # ones are cache hits returning the very same object.
        assert work[0] == direct_counters.pair_tests
        assert work[1:] == [0, 0]
        assert results[1] is results[0] and results[2] is results[0]


def test_concurrent_sessions_on_two_graphs(karate, small_power_law):
    seq_a = filter_refine_sky(karate)
    seq_b = filter_refine_sky(small_power_law)
    with EngineSession(karate) as sa:
        with EngineSession(small_power_law) as sb:
            for _ in range(2):
                ra = sa.refine_sky()
                rb = sb.refine_sky()
                assert ra.skyline == seq_a.skyline
                assert rb.skyline == seq_b.skyline
        # sb closed and dropped its cache; sa's is untouched.
        assert not sb.cached
        assert sa.cached
        assert sa.refine_sky().skyline == seq_a.skyline


def test_double_close_is_noop(karate):
    session = EngineSession(karate)
    session.refine_sky()
    assert session.cached
    session.close()
    session.close()
    assert not session.cached


def test_session_rejects_conflicting_knobs(karate):
    for workers in (0, -1, 2, 3):
        with pytest.raises(ParameterError, match="workers"):
            engine_session(karate, workers=workers)
        with pytest.raises(ParameterError, match="workers"):
            GraphRegistry(workers=workers)
    # The one accepted value builds an ordinary cache.
    with engine_session(karate, workers=1) as session:
        assert isinstance(session, EngineSession)
        assert session.refine_sky().skyline == filter_refine_sky(karate).skyline
