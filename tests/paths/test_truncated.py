"""Tests for the pruned marginal-gain BFS, the scalar gain reference."""

import random

from repro.graph.generators import erdos_renyi
from repro.paths.csr import (
    bfs_distances,
    improvements,
    multi_source_distances,
)


def brute_improvements(graph, source, current):
    """Reference: full BFS + explicit comparison."""
    from_source = bfs_distances(graph, source)
    out = {}
    for v in graph.vertices():
        d_new = from_source[v]
        if d_new == -1:
            continue
        cur = current[v]
        if cur == -1 or d_new < cur:
            out[v] = (cur, d_new)
    return out


class TestImprovements:
    def test_empty_group_equals_full_bfs(self, karate):
        current = [-1] * karate.num_vertices
        got = {v: (o, n) for v, o, n in improvements(karate, 7, current)}
        assert got == brute_improvements(karate, 7, current)

    def test_with_existing_group(self, karate):
        current = multi_source_distances(karate, [33])
        got = {v: (o, n) for v, o, n in improvements(karate, 0, current)}
        assert got == brute_improvements(karate, 0, current)

    def test_source_in_group_yields_nothing(self, karate):
        current = multi_source_distances(karate, [5])
        assert list(improvements(karate, 5, current)) == []

    def test_source_itself_reported(self, p6):
        current = multi_source_distances(p6, [0])
        got = {v: (o, n) for v, o, n in improvements(p6, 5, current)}
        assert got[5] == (5, 0)

    def test_random_graphs_match_bruteforce(self):
        rng = random.Random(0)
        for seed in range(10):
            g = erdos_renyi(25, 0.15, seed=seed)
            group = [rng.randrange(25) for _ in range(3)]
            current = multi_source_distances(g, group)
            for src in range(0, 25, 5):
                if current[src] == 0:
                    continue
                got = {
                    v: (o, n) for v, o, n in improvements(g, src, current)
                }
                assert got == brute_improvements(g, src, current), (
                    seed,
                    src,
                )

    def test_applying_updates_matches_multisource(self, karate):
        # After applying the improvement stream, the distance array must
        # equal a fresh multi-source BFS over the enlarged group.
        current = multi_source_distances(karate, [12])
        updates = list(improvements(karate, 31, current))
        for v, _old, new in updates:
            current[v] = new
        assert current == multi_source_distances(karate, [12, 31])


class TestGainSum:
    """Gains are folds of the improvement stream, as the eager driver
    runs them."""

    def test_counts_improvements(self, p6):
        current = multi_source_distances(p6, [0])
        total = sum(1.0 for _ in improvements(p6, 5, current))
        # Improved vertices: 3 (4→2), 4 (4... ) compute: current=[0..5];
        # adding 5 improves 3 (3→2), 4 (4→1), 5 (5→0).
        assert total == 3.0

    def test_weight_receives_old_and_new(self, p6):
        current = multi_source_distances(p6, [0])
        drop = sum(old - new for _v, old, new in improvements(p6, 5, current))
        assert drop == (3 - 2) + (4 - 1) + (5 - 0)
