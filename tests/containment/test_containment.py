"""Tests for the generic set-containment machinery."""

import numpy as np
import pytest

from repro.containment.inverted import InvertedIndex
from repro.containment.lcjoin import ContainmentJoin, _intersect_sorted
from repro.containment.records import RecordSet
from repro.errors import ParameterError


class TestRecordSet:
    def test_records_sorted_and_deduped(self):
        rs = RecordSet([[3, 1, 3, 2]])
        assert rs.record(0) == (1, 2, 3)

    def test_universe(self):
        rs = RecordSet([[0, 5], [2]])
        assert rs.universe == 6

    def test_universe_of_empty(self):
        assert RecordSet([[], []]).universe == 0

    def test_negative_elements_rejected(self):
        with pytest.raises(ParameterError):
            RecordSet([[-1, 2]])

    def test_len_and_iter(self):
        rs = RecordSet([[1], [2, 3]])
        assert len(rs) == 2
        assert list(rs) == [(1,), (2, 3)]

    def test_total_elements(self):
        assert RecordSet([[1], [2, 3]]).total_elements() == 3

    def test_contains_helper(self):
        assert RecordSet.contains((1, 2, 3, 9), (2, 9))
        assert not RecordSet.contains((1, 2, 3), (2, 4))
        assert RecordSet.contains((1, 2), ())

    def test_neighborhood_constructors(self, triangle):
        closed = RecordSet.closed_neighborhoods(triangle)
        opened = RecordSet.open_neighborhoods(triangle)
        assert closed.record(0) == (0, 1, 2)
        assert opened.record(0) == (1, 2)


class TestInvertedIndex:
    def test_postings_sorted(self):
        rs = RecordSet([[1, 2], [2], [1, 2, 3]])
        idx = InvertedIndex(rs)
        assert list(idx.postings(2)) == [0, 1, 2]
        assert list(idx.postings(1)) == [0, 2]
        assert list(idx.postings(3)) == [2]

    def test_missing_element_empty(self):
        idx = InvertedIndex(RecordSet([[1]]))
        assert list(idx.postings(99)) == []
        assert idx.posting_length(99) == 0

    def test_memory_entries_equals_total_elements(self):
        rs = RecordSet([[1, 2], [2, 3, 4]])
        assert InvertedIndex(rs).memory_entries() == rs.total_elements()


class TestIntersectSorted:
    def test_basic(self):
        assert _intersect_sorted([1, 3, 5], [2, 3, 5, 7]) == [3, 5]

    def test_disjoint(self):
        assert _intersect_sorted([1, 2], [3, 4]) == []

    def test_asymmetric_sizes(self):
        big = list(range(0, 1000, 2))
        assert _intersect_sorted([10, 11, 500], big) == [10, 500]

    def test_ndarray_vector_path_matches_scalar(self):
        a = np.arange(0, 200, 3, dtype=np.int32)
        b = np.arange(0, 200, 5, dtype=np.int32)
        expected = _intersect_sorted(list(a), list(b))
        assert list(_intersect_sorted(a, b)) == expected

    def test_empty_input(self):
        assert _intersect_sorted([], [1, 2]) == []


class TestContainmentJoin:
    def setup_method(self):
        self.data = RecordSet([
            {1, 2, 3},
            {2, 3},
            {4},
            {1, 2, 3, 4},
        ])
        self.join = ContainmentJoin(self.data)

    def test_containing_records(self):
        assert self.join.containing_records((2, 3)) == [0, 1, 3]

    def test_exact_match_included(self):
        assert 2 in self.join.containing_records((4,))

    def test_no_match(self):
        assert self.join.containing_records((5,)) == []

    def test_empty_query_matches_all(self):
        assert self.join.containing_records(()) == [0, 1, 2, 3]

    def test_limit_short_circuits(self):
        assert self.join.containing_records((2, 3), limit=1) == [0]

    def test_full_join(self):
        queries = RecordSet([{2, 3}, {4}])
        results = dict(self.join.join(queries))
        assert results == {0: [0, 1, 3], 1: [2, 3]}

    def test_join_agrees_with_bruteforce_on_random_data(self):
        import random

        rng = random.Random(5)
        records = [
            {rng.randrange(25) for _ in range(rng.randrange(1, 8))}
            for _ in range(40)
        ]
        data = RecordSet(records)
        join = ContainmentJoin(data)
        for q in records[:15]:
            expected = [
                i for i, r in enumerate(records) if set(q) <= set(r)
            ]
            assert join.containing_records(tuple(sorted(q))) == expected
