"""Property tests for the structural extras: threshold, approx, layers."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.approx import approx_skyline
from repro.core.api import neighborhood_skyline
from repro.core.domination import neighborhood_included
from repro.core.layers import dominance_layers, layer_sets
from repro.graph.threshold import (
    creation_sequence,
    is_threshold_graph,
    threshold_graph,
)
from tests.conftest import graphs, power_law_graphs

COMMON = settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

creation_sequences = st.text(alphabet="id", min_size=0, max_size=14)


@COMMON
@given(creation_sequences)
def test_threshold_roundtrip(sequence):
    g = threshold_graph(sequence)
    recovered = creation_sequence(g)
    assert recovered is not None
    rebuilt = threshold_graph(recovered)
    assert sorted(g.degree(u) for u in g.vertices()) == sorted(
        rebuilt.degree(u) for u in rebuilt.vertices()
    )


@COMMON
@given(creation_sequences)
def test_threshold_preorder_total(sequence):
    g = threshold_graph(sequence)
    for u in g.vertices():
        for v in g.vertices():
            if u != v:
                assert neighborhood_included(
                    g, u, v
                ) or neighborhood_included(g, v, u)


@COMMON
@given(graphs(max_vertices=16))
def test_recognition_agrees_with_totality(g):
    # A graph is threshold iff the inclusion pre-order is total AND it
    # has no isolated-vs-nonisolated incomparability... the classical
    # characterization is totality of the vicinal pre-order; verify the
    # recognizer against it.
    total = all(
        neighborhood_included(g, u, v) or neighborhood_included(g, v, u)
        for u in g.vertices()
        for v in g.vertices()
        if u != v
    )
    assert is_threshold_graph(g) == total


@COMMON
@given(graphs(), st.sampled_from([0.0, 0.15, 0.3, 0.5]))
def test_approx_skyline_sound(g, eps):
    # Not a subset claim — relaxation can flip a strict domination into
    # a mutual tie that the ID order resolves the other way (see the
    # module docstring).  The sound invariants are membership-wise.
    from repro.core.approx import epsilon_dominates
    from repro.core.domination import two_hop_neighbors

    result = approx_skyline(g, eps)
    if eps == 0.0:
        assert result.skyline == neighborhood_skyline(g).skyline
        return
    members = result.skyline_set
    for u in g.vertices():
        has_dominator = any(
            epsilon_dominates(g, w, u, eps)
            for w in two_hop_neighbors(g, u)
        )
        assert (u not in members) == has_dominator


@COMMON
@given(power_law_graphs(max_vertices=40))
def test_layers_first_is_skyline(g):
    sets_ = layer_sets(g)
    if g.num_vertices == 0:
        assert sets_ == []
        return
    assert sets_[0] == neighborhood_skyline(g).skyline


@COMMON
@given(graphs())
def test_layer_values_well_formed(g):
    layers = dominance_layers(g)
    assert len(layers) == g.num_vertices
    assert all(depth >= 1 for depth in layers)
