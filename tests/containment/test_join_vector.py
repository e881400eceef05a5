"""Differential safety net for the containment join's ndarray paths.

The rarest-first crosscut intersects ``int32`` ndarray postings, taking
the ``np.intersect1d`` fast path once both sides are long enough.  It
must return exactly what a brute-force subset scan returns — same
record IDs, same ascending order, same ``limit`` semantics — on random
record sets, and the LC-Join skyline adapter must agree with the
paper's FilterRefineSky on real graphs.
"""

import random

import numpy as np
import pytest

from repro.containment import lcjoin
from repro.containment.lcjoin import (
    INTERSECT_VECTOR_MIN,
    ContainmentJoin,
    _intersect_sorted,
)
from repro.containment.records import RecordSet
from repro.core.api import neighborhood_skyline
from repro.core.filter_refine import filter_refine_sky
from repro.core.join_sky import lc_join_sky
from repro.graph.generators import barabasi_albert, erdos_renyi


def random_records(rng, nrec=50, universe=30, max_len=9):
    return [
        {rng.randrange(universe) for _ in range(rng.randrange(0, max_len))}
        for _ in range(nrec)
    ]


def brute_force(records, query):
    return [i for i, r in enumerate(records) if set(query) <= set(r)]


class TestVectorMatchesScalar:
    """The join over ``int32`` ndarray postings against a scalar
    brute-force subset scan."""

    def test_random_record_sets(self):
        rng = random.Random(31)
        for _trial in range(25):
            records = random_records(rng)
            join = ContainmentJoin(RecordSet(records))
            queries = records + [
                {rng.randrange(30) for _ in range(rng.randrange(1, 5))}
                for _ in range(8)
            ]
            for q in queries:
                qt = tuple(sorted(q))
                assert join.containing_records(qt) == brute_force(records, q)

    def test_limit_semantics_match(self):
        rng = random.Random(32)
        records = random_records(rng, nrec=40)
        join = ContainmentJoin(RecordSet(records))
        for q in ((3,), (1, 4), (0, 2, 5)):
            expected = brute_force(records, q)
            for limit in (None, 0, 1, 2, 100):
                assert join.containing_records(q, limit=limit) == (
                    expected if limit is None else expected[:limit]
                )

    def test_results_are_python_ints(self):
        data = RecordSet([{1, 2}, {1, 2, 3}])
        hits = ContainmentJoin(data).containing_records((1, 2))
        assert all(type(r) is int for r in hits)

    def test_results_are_fresh_lists(self):
        # A single-element query must not hand back index internals.
        data = RecordSet([{1}, {1, 2}])
        join = ContainmentJoin(data)
        hits = join.containing_records((1,))
        hits.append(999)
        assert join.containing_records((1,)) == [0, 1]


class TestIntersectVectorPath:
    def test_ndarray_fast_path_matches_galloping(self):
        rng = random.Random(33)
        for _trial in range(20):
            a = sorted(rng.sample(range(400), rng.randrange(
                INTERSECT_VECTOR_MIN, 80)))
            b = sorted(rng.sample(range(400), rng.randrange(
                INTERSECT_VECTOR_MIN, 80)))
            expected = _intersect_sorted(a, b)
            got = _intersect_sorted(
                np.asarray(a, dtype=np.int32),
                np.asarray(b, dtype=np.int32),
            )
            assert list(got) == expected

    def test_short_ndarrays_use_scalar_loop(self):
        a = np.asarray([1, 5], dtype=np.int32)
        b = np.asarray([5, 9], dtype=np.int32)
        assert list(_intersect_sorted(a, b)) == [5]


#: ``INTERSECT_VECTOR_MIN`` per pairwise path: ``scalar`` forces the
#: galloping loop, ``vector`` forces ``np.intersect1d`` and ``auto``
#: keeps the shipped floor.
PAIRWISE_FLOORS = {
    "scalar": 10**9,
    "vector": 1,
    "auto": INTERSECT_VECTOR_MIN,
}


class TestJoinSkyKernels:
    """The LC-Join skyline against the bloom (Alg. 3) and block refine
    kernels, which share no code with it."""

    @pytest.mark.parametrize("kernel", ["scalar", "vector", "auto"])
    def test_skyline_identical_across_kernels(self, kernel, monkeypatch):
        monkeypatch.setattr(
            lcjoin, "INTERSECT_VECTOR_MIN", PAIRWISE_FLOORS[kernel]
        )
        rng = random.Random(34)
        for _trial in range(6):
            n = rng.randrange(5, 50)
            g = erdos_renyi(n, rng.random(), seed=rng.randrange(10**6))
            expected = filter_refine_sky(g).skyline
            assert lc_join_sky(g).skyline == expected
            assert neighborhood_skyline(g).skyline == expected

    def test_power_law_graph(self):
        g = barabasi_albert(300, 3, seed=9)
        assert lc_join_sky(g).skyline == filter_refine_sky(g).skyline
