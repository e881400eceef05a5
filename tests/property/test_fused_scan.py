"""Differential tests for the one-array fused gain scan.

:meth:`~repro.paths.csr.CSRTraversal.adaptive_eval` runs the scalar
pruned BFS on the committed distance list itself (``n`` standing for
"unreachable"): it lowers every admitted vertex in place, keeps the old
value aligned with its queue slot, and folds the gain and restores the
list in one sweep.  A scan that runs past its edge budget restores the
list and hands the candidate to the vector scan.

Every scan here is checked against the eager driver's reference: the
``(v, old, new)`` stream of :func:`repro.paths.truncated.improvements`
(``-1`` for unreachable) folded the old way, ``gain = 0.0`` then
``gain += gain_weight(old, new)`` in emission order.  Gains must agree
on ``float.hex`` and update lists exactly, for the closeness, harmonic
and an untagged ``gain_weight`` objective, budgets 0 (every scan that
visits an edge is abandoned), huge (none is) and random, ``collect`` on
and off, every source including those already in the group, on graphs
with isolated vertices and several components.
After every finished and every abandoned scan the distance list must
equal its pre-scan copy.
"""

import random

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.centrality.group_closeness_max import ClosenessObjective
from repro.centrality.group_harmonic_max import HarmonicObjective
from repro.graph.adjacency import Graph
from repro.paths.bfs import multi_source_distances
from repro.paths.csr import CSRTraversal
from repro.paths.truncated import improvements
from tests.conftest import graphs

COMMON = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Larger than any edge count a test graph can have.
NO_HANDOFF = 1 << 40


class RecordingObjective:
    """An untagged objective: drives the generic ``gain_weight`` fold.

    Its terms are not exact binary fractions, so a fold out of emission
    order shows in the last bits, and an unreachable old distance passed
    as anything but ``-1`` changes the term.  It records the ``(old,
    new)`` stream it is fed.
    """

    name = "recording-inverse-square"

    def __init__(self):
        self.stream = []

    def gain_weight(self, old: int, new: int) -> float:
        self.stream.append((old, new))
        old_term = 0.0 if old == -1 else 1.0 / (old * old + 1)
        return 1.0 / (new * new + 1) - old_term


@st.composite
def multi_component_graphs(draw):
    """Two random graphs side by side plus isolated vertices, with the
    vertex IDs shuffled so the components interleave."""
    parts = [draw(graphs(max_vertices=14)), draw(graphs(max_vertices=8))]
    isolated = draw(st.integers(min_value=0, max_value=3))
    n = sum(p.num_vertices for p in parts) + isolated
    perm = list(range(n))
    random.Random(draw(st.integers(0, 2**31))).shuffle(perm)
    edges, offset = [], 0
    for part in parts:
        edges += [
            (perm[u + offset], perm[v + offset]) for u, v in part.edges()
        ]
        offset += part.num_vertices
    return Graph.from_edges(n, edges)


def reference(graph, source, current, weight):
    """The eager driver's fold of one candidate: ``(gain, updates,
    stream)`` with the ``(old, new)`` terms in emission order."""
    gain = 0.0
    updates, stream = [], []
    for v, old, new in improvements(graph, source, current):
        gain += weight(old, new)
        updates.append((v, new))
        stream.append((old, new))
    return gain, updates, stream


@COMMON
@given(
    multi_component_graphs(),
    st.sampled_from(["closeness", "harmonic", "generic"]),
    st.sampled_from([0, NO_HANDOFF, "random"]),
    st.integers(min_value=0, max_value=2**31),
)
def test_fused_scan_matches_the_eager_fold(g, measure, budget_kind, seed):
    rng = random.Random(seed)
    n = g.num_vertices
    group = rng.sample(range(n), rng.randint(0, min(4, n)))
    current = multi_source_distances(g, group) if group else [-1] * n
    current_nd = np.array(current, dtype=np.int32)
    dist = [n if d == -1 else d for d in current]
    before = list(dist)
    if measure == "closeness":
        objective = ClosenessObjective(g)
    elif measure == "harmonic":
        objective = HarmonicObjective()
    else:
        objective = RecordingObjective()
    trav = CSRTraversal(g)
    abandoned = 0
    for u in g.vertices():
        budget = (
            rng.randint(0, 2 * g.num_edges + 1)
            if budget_kind == "random" else budget_kind
        )
        for collect in (False, True):
            want_gain, want_updates, want_stream = reference(
                g, u, current, objective.gain_weight
            )
            if measure == "generic":
                objective.stream = []
            dispatches = trav.vector_dispatches
            gain, updates = trav.adaptive_eval(
                u, dist, current_nd, objective, collect, budget=budget
            )
            abandoned += trav.vector_dispatches - dispatches
            assert dist == before
            assert gain.hex() == want_gain.hex()
            assert updates == (want_updates if collect else None)
            if measure == "generic":
                assert objective.stream == want_stream
    if budget_kind == 0:
        # Every scan that visits an edge was abandoned: the restore
        # check above ran on the abandoned path too.
        movable = [
            u for u in g.vertices() if u not in group and g.degree(u)
        ]
        assert abandoned == 2 * len(movable)
    elif budget_kind == NO_HANDOFF:
        assert abandoned == 0


@COMMON
@given(multi_component_graphs(), st.integers(min_value=0, max_value=2**31))
def test_source_in_group_scores_zero_and_touches_nothing(g, seed):
    n = g.num_vertices
    if not n:
        return
    group = random.Random(seed).sample(range(n), min(3, n))
    current = multi_source_distances(g, group)
    dist = [n if d == -1 else d for d in current]
    before = list(dist)
    trav = CSRTraversal(g)
    for u in group:
        for objective in (ClosenessObjective(g), HarmonicObjective()):
            for budget in (0, -1):
                assert trav.adaptive_eval(
                    u, dist, None, objective, True, budget=budget
                ) == (0.0, [])
                assert trav.adaptive_eval(
                    u, dist, None, objective, budget=budget
                ) == (0.0, None)
    assert dist == before
    assert trav.vector_dispatches == 0
