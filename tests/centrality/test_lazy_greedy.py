"""Tests for the lazy (CELF) greedy engine and its strategy dispatcher.

The engine's contract is *bit-for-bit* equality with
:func:`~repro.centrality.greedy.greedy_maximize` — same group, same
gains (``==``, not approx), same pool size — while performing strictly
fewer gain evaluations on any instance where laziness can pay.  The
counter invariant ``evaluations + evaluations_saved == eager
evaluations`` is what the benchmarks report, so it is pinned here too.
"""

import numpy as np
import pytest

from repro.centrality.greedy import GreedyResult, greedy_maximize
from repro.centrality.group_betweenness_max import base_gb, neisky_gb
from repro.centrality.group_closeness_max import (
    ClosenessObjective,
    base_gc,
    neisky_gc,
)
from repro.centrality.group_harmonic_max import base_gh, neisky_gh
from repro.centrality.lazy_greedy import lazy_greedy_maximize, run_greedy
from repro.errors import ParameterError
from repro.graph.components import largest_connected_component
from repro.graph.generators import copying_power_law, erdos_renyi


def assert_identical(lazy, eager):
    """Bitwise result equality plus the saved-evaluations invariant."""
    assert lazy.group == eager.group
    assert lazy.gains == eager.gains  # float ==, no approx
    assert lazy.pool_size == eager.pool_size
    assert lazy.evaluations + lazy.evaluations_saved == eager.evaluations


class TestLazyMatchesEager:
    @pytest.mark.parametrize("k", [0, 1, 3, 8])
    def test_closeness_base(self, karate, k):
        assert_identical(
            base_gc(karate, k, strategy="lazy"),
            base_gc(karate, k, strategy="eager"),
        )

    @pytest.mark.parametrize("k", [1, 4])
    def test_closeness_neisky(self, karate, k):
        assert_identical(
            neisky_gc(karate, k, strategy="lazy"),
            neisky_gc(karate, k, strategy="eager"),
        )

    @pytest.mark.parametrize("k", [0, 1, 3, 8])
    def test_harmonic_base(self, karate, k):
        assert_identical(
            base_gh(karate, k, strategy="lazy"),
            base_gh(karate, k, strategy="eager"),
        )

    @pytest.mark.parametrize("k", [1, 4])
    def test_harmonic_neisky(self, karate, k):
        assert_identical(
            neisky_gh(karate, k, strategy="lazy"),
            neisky_gh(karate, k, strategy="eager"),
        )

    def test_power_law_instances(self):
        for seed in (0, 1):
            g, _ = largest_connected_component(
                copying_power_law(120, 2.5, 0.85, seed=seed)
            )
            for k in (3, 6):
                assert_identical(
                    base_gc(g, k, strategy="lazy"),
                    base_gc(g, k, strategy="eager"),
                )
                assert_identical(
                    base_gh(g, k, strategy="lazy"),
                    base_gh(g, k, strategy="eager"),
                )

    def test_disconnected_graph(self, disconnected):
        for k in (2, 5):
            assert_identical(
                base_gc(disconnected, k, strategy="lazy"),
                base_gc(disconnected, k, strategy="eager"),
            )
            assert_identical(
                base_gh(disconnected, k, strategy="lazy"),
                base_gh(disconnected, k, strategy="eager"),
            )

    def test_pool_exhaustion_fallback(self, karate):
        # 2-vertex pool, k = 4: the heap runs dry and the lazy driver
        # must rebuild from V \ S exactly like the eager fallback.
        objective = ClosenessObjective(karate)
        lazy = lazy_greedy_maximize(
            karate, 4, objective, candidates=[0, 1]
        )
        eager = greedy_maximize(karate, 4, objective, candidates=[0, 1])
        assert_identical(lazy, eager)
        assert len(lazy.group) == 4

    def test_k_exceeds_n(self, karate):
        assert_identical(
            base_gc(karate, 100, strategy="lazy"),
            base_gc(karate, 100, strategy="eager"),
        )


class TestLazySavesEvaluations:
    def test_strictly_fewer_on_karate(self, karate):
        # Acceptance criterion: strictly lower for k >= 5 on at least
        # one benchmark instance.
        for k in (5, 8):
            lazy = base_gc(karate, k, strategy="lazy")
            eager = base_gc(karate, k, strategy="eager")
            assert lazy.evaluations < eager.evaluations
            assert lazy.evaluations_saved > 0

    def test_saves_on_harmonic_too(self, karate):
        lazy = base_gh(karate, 6, strategy="lazy")
        eager = base_gh(karate, 6, strategy="eager")
        assert lazy.evaluations < eager.evaluations

    def test_round_zero_cannot_save(self, karate):
        # Round 0 evaluates everything in either schedule.
        lazy = base_gc(karate, 1, strategy="lazy")
        assert lazy.evaluations_saved == 0
        assert lazy.evaluations == karate.num_vertices


class TestResultMetadata:
    def test_strategy_field(self, karate):
        assert base_gc(karate, 2, strategy="eager").strategy == "eager"
        # Lazy is the default schedule.
        assert base_gc(karate, 2).strategy == "lazy"

    def test_eager_defaults_backward_compatible(self):
        r = GreedyResult(
            group=(1,),
            gains=(2.0,),
            evaluations=3,
            pool_size=4,
            objective="x",
        )
        assert r.evaluations_saved == 0
        assert r.strategy == "eager"


class TestValidation:
    def test_negative_k(self, karate):
        with pytest.raises(ParameterError):
            lazy_greedy_maximize(karate, -1, ClosenessObjective(karate))

    def test_candidate_out_of_range(self, karate):
        with pytest.raises(ParameterError):
            lazy_greedy_maximize(
                karate, 2, ClosenessObjective(karate), candidates=[99]
            )

    def test_unknown_strategy(self, karate):
        with pytest.raises(ParameterError, match="unknown greedy strategy"):
            run_greedy(
                karate, 2, ClosenessObjective(karate), strategy="bogus"
            )

    @pytest.mark.parametrize("strategy", ["lazy", "eager"])
    @pytest.mark.parametrize("neisky", [neisky_gc, neisky_gh])
    @pytest.mark.parametrize(
        "skyline, shown",
        [
            ((1.5, 2), "1.5"),  # used to index a bytearray: raw TypeError
            (("a",), "'a'"),  # used to fail sorting: raw TypeError
            ((True, 2), "True"),  # used to return group=(True,)
            ((np.True_, 2), "True"),
            ((2, np.float64(3.0)), "3.0"),
        ],
    )
    def test_non_integer_candidate_is_a_one_line_error(
        self, karate, strategy, neisky, skyline, shown
    ):
        with pytest.raises(ParameterError) as info:
            neisky(karate, 1, skyline=skyline, strategy=strategy)
        message = str(info.value)
        assert "\n" not in message
        assert "not an integer vertex ID" in message
        assert shown in message

    @pytest.mark.parametrize("strategy", ["lazy", "eager"])
    def test_numpy_integer_candidates_accepted(self, karate, strategy):
        plain = neisky_gc(karate, 2, skyline=(0, 5, 33), strategy=strategy)
        for skyline in (
            np.array([0, 5, 33]),
            (np.int32(0), np.uint16(5), np.int64(33)),
        ):
            result = neisky_gc(karate, 2, skyline=skyline, strategy=strategy)
            assert result == plain
            assert all(type(u) is int for u in result.group)

    def test_untagged_objective_runs_eager_only(self, karate):
        class Unit:
            """Counts newly reached vertices; no ``csr_kernel`` tag."""

            name = "unit"

            def gain_weight(self, old, new):
                return 1.0 if old == -1 else 0.0

        with pytest.raises(ParameterError) as info:
            run_greedy(karate, 2, Unit(), strategy="lazy")
        message = str(info.value)
        assert "\n" not in message
        assert "'unit'" in message and 'strategy="eager"' in message
        eager = run_greedy(karate, 2, Unit(), strategy="eager")
        assert len(eager.group) == 2
        assert eager.gains == (34.0, 0.0)

class TestGroupBetweennessLazy:
    @pytest.fixture
    def community(self):
        g, _ = largest_connected_component(erdos_renyi(25, 0.15, seed=7))
        assert g.num_vertices >= 15
        return g

    @pytest.mark.parametrize("k", [0, 2, 4])
    def test_base_matches_eager(self, community, k):
        lazy = base_gb(community, k, strategy="lazy")
        eager = base_gb(community, k)
        assert lazy.group == eager.group
        assert lazy.scores == eager.scores
        assert (
            lazy.evaluations + lazy.evaluations_saved == eager.evaluations
        )

    def test_neisky_matches_eager(self, community):
        lazy = neisky_gb(community, 3, strategy="lazy")
        eager = neisky_gb(community, 3)
        assert lazy.group == eager.group
        assert lazy.scores == eager.scores

    def test_saves_evaluations(self, community):
        lazy = base_gb(community, 4, strategy="lazy")
        assert lazy.evaluations < base_gb(community, 4).evaluations

    def test_unknown_strategy_rejected(self, community):
        with pytest.raises(ParameterError):
            base_gb(community, 2, strategy="bogus")
