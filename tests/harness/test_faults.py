"""Unit tests for the deterministic serve fault-injection plan."""

import pickle

import pytest

from repro.harness.faults import SERVE_FAULT_KINDS, ServeFaultPlan


def test_serve_plan_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown serve fault kind"):
        ServeFaultPlan({("g", 0): "crash"})  # not a serve kind
    assert "engine-exception" in SERVE_FAULT_KINDS
    # seeded() validates the whole menu up front — sampling might never
    # draw the typo into a cell, and a bad plan must fail every time.
    with pytest.raises(ValueError, match="unknown serve fault kind"):
        ServeFaultPlan.seeded(1, ["g"], kinds=("engine-exception", "typo"))
    with pytest.raises(ValueError, match="rate"):
        ServeFaultPlan.seeded(1, ["g"], rate=1.5)


def test_serve_plan_exact_and_wildcard_cells():
    plan = ServeFaultPlan(
        {("g", 3): "slow", ("h", None): "engine-exception"}
    )
    assert plan.fault_for("g", 3) == "slow"
    assert plan.fault_for("g", 4) is None
    # Wildcard: every dispatch of h faults; exact cells win over it.
    assert plan.fault_for("h", 0) == "engine-exception"
    assert plan.fault_for("h", 999) == "engine-exception"
    exact_wins = ServeFaultPlan({("h", 1): "slow", ("h", None): "hang"})
    assert exact_wins.fault_for("h", 1) == "slow"
    assert exact_wins.fault_for("h", 2) == "hang"


def test_serve_plan_constructors_and_determinism():
    single = ServeFaultPlan.single("hang", "g", 2, hang_seconds=1.5)
    assert single.fault_for("g", 2) == "hang"
    assert single.hang_seconds == 1.5
    always = ServeFaultPlan.always("session-poison", "g")
    assert always.fault_for("g", 123) == "session-poison"
    a = ServeFaultPlan.seeded(11, ["g", "h"], rate=0.3)
    b = ServeFaultPlan.seeded(11, ["g", "h"], rate=0.3)
    c = ServeFaultPlan.seeded(12, ["g", "h"], rate=0.3)
    assert a == b
    assert a != c
    assert a.faults and all(g in ("g", "h") for g, _ in a.faults)


def test_serve_plan_pickles_roundtrip():
    plan = ServeFaultPlan.seeded(5, ["g"], rate=0.4, slow_seconds=0.2)
    clone = pickle.loads(pickle.dumps(plan))
    assert clone == plan
    assert clone.slow_seconds == 0.2
