"""Tests for the cooperative per-thread deadline (:mod:`repro.core.deadline`).

The checkpoint tests run each instrumented loop under an already-passed
deadline, so every one of them must raise at its first checkpoint; a
loop that lost its ``check()`` would run to completion instead.
"""

import threading

import pytest

from repro.centrality import base_gc, lazy_greedy
from repro.centrality.greedy import greedy_maximize
from repro.centrality.group_closeness_max import ClosenessObjective
from repro.centrality.lazy_greedy import DRAIN_CHECK_INTERVAL
from repro.clique import base_topk_mcc, mc_brb, neisky_mc
from repro.core.block_refine import filter_refine_block_sky
from repro.core.deadline import DeadlineExceeded, check, deadline
from repro.graph.generators import barabasi_albert, erdos_renyi
from repro.paths.csr import CSRTraversal


def test_no_deadline_is_a_no_op():
    check()
    with deadline(None):
        check()


def test_check_raises_once_passed_and_restores_on_exit():
    with deadline(60.0):
        check()
        with deadline(0.0):
            with pytest.raises(DeadlineExceeded):
                check()
        check()  # the outer 60 s deadline is back
    check()  # and none at all after the outer block


def test_deadline_is_per_thread():
    outcome = []

    def other():
        try:
            check()
            outcome.append("ok")
        except DeadlineExceeded:
            outcome.append("raised")

    with deadline(0.0):
        thread = threading.Thread(target=other)
        thread.start()
        thread.join()
    assert outcome == ["ok"]


@pytest.mark.parametrize(
    "run",
    [
        pytest.param(lambda g: filter_refine_block_sky(g), id="block_refine"),
        pytest.param(lambda g: base_gc(g, 3), id="lazy_greedy"),
        pytest.param(
            lambda g: greedy_maximize(g, 3, ClosenessObjective(g)),
            id="eager_greedy",
        ),
        pytest.param(lambda g: mc_brb(g), id="mc_brb"),
        pytest.param(
            lambda g: neisky_mc(g, skyline=tuple(range(g.num_vertices))),
            id="neisky_mc",
        ),
        pytest.param(lambda g: base_topk_mcc(g, 2), id="topk"),
    ],
)
def test_every_checkpoint_fires(run, karate):
    graph = erdos_renyi(80, 0.25, seed=3)
    for g in (karate, graph):
        run(g)  # no deadline: runs to completion
    with deadline(0.0):
        with pytest.raises(DeadlineExceeded):
            run(graph)


def test_round_zero_checks_each_bfs_level():
    # One chunk of the bitset BFS holds this whole pool, so only the
    # per-level checkpoint inside it can stop greedy round 0.
    graph = barabasi_albert(300, 4, seed=1)
    trav = CSRTraversal(graph)
    objective = ClosenessObjective(graph)
    sources = range(graph.num_vertices)
    expected = trav.first_round_gains(sources, objective)
    with deadline(0.0):
        with pytest.raises(DeadlineExceeded):
            trav.first_round_gains(sources, objective)
    assert trav.first_round_gains(sources, objective) == expected


def test_celf_drain_checks_every_interval(monkeypatch):
    """The drain checks the deadline once per DRAIN_CHECK_INTERVAL stale
    pops: count the gain-only scans between two checkpoints."""
    graph = barabasi_albert(600, 4, seed=1)
    expected = base_gc(graph, 4)
    scans = [0]
    gaps = []
    scan = CSRTraversal.adaptive_eval

    def counting_scan(self, source, current, current_nd, objective, collect=False):
        scans[0] += not collect
        return scan(self, source, current, current_nd, objective, collect)

    def counting_check():
        gaps.append(scans[0])
        scans[0] = 0

    monkeypatch.setattr(CSRTraversal, "adaptive_eval", counting_scan)
    monkeypatch.setattr(lazy_greedy, "check_deadline", counting_check)
    assert base_gc(graph, 4) == expected
    # Rounds 1-3 drain hundreds of stale entries each, so the steady
    # interval is reached, and never exceeded.
    assert sum(gaps) > 3 * DRAIN_CHECK_INTERVAL
    assert max(gaps + scans) == DRAIN_CHECK_INTERVAL
