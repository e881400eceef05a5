"""Unit tests for the multi-graph registry and the query dispatcher."""

from __future__ import annotations

import pytest

from repro.core.filter_refine import filter_refine_sky
from repro.errors import ParameterError, ReproError
from repro.serve.registry import (
    GraphRegistry,
    execute_query,
    parse_graph_spec,
)
from repro.workloads import load


def test_parse_graph_spec_forms():
    assert parse_graph_spec("karate") == ("karate", "dataset", "karate")
    assert parse_graph_spec("web=/tmp/web.edges") == (
        "web",
        "edge_list",
        "/tmp/web.edges",
    )
    with pytest.raises(ParameterError):
        parse_graph_spec("=path")
    with pytest.raises(ParameterError):
        parse_graph_spec("name=")


def test_register_dataset_and_edge_list(tmp_path):
    edge_file = tmp_path / "tiny.edges"
    edge_file.write_text("# triangle plus tail\n0 1\n1 2\n0 2\n2 3\n")
    registry = GraphRegistry()
    try:
        registry.register_spec("karate")
        entry = registry.register_spec(f"tiny={edge_file}")
        assert registry.names() == ("karate", "tiny")
        assert entry.graph.num_vertices == 4
        assert entry.source == f"edge_list:{edge_file}"
    finally:
        registry.close()


def test_duplicate_and_unknown_names_are_rejected():
    registry = GraphRegistry()
    try:
        registry.register("g", load("karate"))
        with pytest.raises(ParameterError, match="already registered"):
            registry.register("g", load("karate"))
        with pytest.raises(ParameterError, match="unknown graph"):
            registry.entry("missing")
    finally:
        registry.close()


def test_session_is_lazy_and_skyline_cached():
    registry = GraphRegistry()
    try:
        entry = registry.register("karate", load("karate"))
        assert entry.describe()["skyline_cached"] is False
        first = entry.skyline_result()
        assert entry.describe()["skyline_cached"] is True
        assert entry.skyline_result() is first  # cached, not recomputed
    finally:
        registry.close()


def test_close_is_idempotent_and_blocks_registration():
    registry = GraphRegistry()
    entry = registry.register("karate", load("karate"))
    entry.skyline_result()  # fill the cache
    registry.close()
    registry.close()  # second close is a no-op
    with pytest.raises(ReproError):
        registry.register("again", load("karate"))


def test_execute_query_matches_direct_calls():
    graph = load("karate")
    registry = GraphRegistry()
    try:
        entry = registry.register("karate", graph)
        direct = filter_refine_sky(graph)

        skyline = execute_query(entry, "skyline", {})
        assert tuple(skyline["skyline"]) == direct.skyline
        assert tuple(skyline["dominator"]) == direct.dominator
        assert skyline["candidate_size"] == direct.candidate_size

        from repro.centrality import neisky_gh

        group = execute_query(
            entry, "group", {"k": 4, "measure": "harmonic"}
        )
        expected = neisky_gh(graph, 4, skyline=direct.skyline)
        assert tuple(group["group"]) == expected.group
        assert tuple(group["gains"]) == expected.gains

        from repro.clique import neisky_topk_mcc

        clique = execute_query(entry, "clique", {"top_k": 2})
        assert clique["cliques"] == neisky_topk_mcc(graph, 2)
    finally:
        registry.close()


def test_execute_query_validates_parameters():
    registry = GraphRegistry()
    try:
        entry = registry.register("karate", load("karate"))
        with pytest.raises(ParameterError, match="unknown query kind"):
            execute_query(entry, "mystery", {})
        with pytest.raises(ParameterError, match="measure"):
            execute_query(entry, "group", {"measure": "pagerank"})
        with pytest.raises(ParameterError, match="k must be"):
            execute_query(entry, "group", {"k": -1})
        with pytest.raises(ParameterError, match="top_k"):
            execute_query(entry, "clique", {"top_k": 0})
        with pytest.raises(ParameterError, match="k must be an integer"):
            execute_query(entry, "group", {"k": True})
    finally:
        registry.close()


@pytest.mark.parametrize(
    "kind, params, key",
    [
        ("skyline", {"k": 3}, "'k'"),
        ("group", {"K": 3}, "'K'"),
        ("group", {"k": 2, "top_k": 2}, "'top_k'"),
        ("clique", {"k": 2}, "'k'"),
    ],
)
def test_unknown_query_key_is_rejected(kind, params, key):
    # An unknown key used to be ignored silently: {"K": 3} ran k=8.
    registry = GraphRegistry()
    try:
        entry = registry.register("karate", load("karate"))
        with pytest.raises(ParameterError) as info:
            execute_query(entry, kind, params)
        message = str(info.value)
        assert "\n" not in message
        assert key in message and f"unknown {kind} query parameter" in message
        assert "allowed: [" in message
    finally:
        registry.close()


@pytest.mark.parametrize("kind", ["group", "clique"])
@pytest.mark.parametrize("value", ["false", "no", 0, 1, None, [], "true"])
def test_use_skyline_must_be_boolean(kind, value):
    # bool("false") is True: a truthiness cast would silently run the
    # skyline variant for {"use_skyline": "false"}.
    registry = GraphRegistry()
    try:
        entry = registry.register("karate", load("karate"))
        with pytest.raises(
            ParameterError, match="use_skyline must be true or false"
        ):
            execute_query(entry, kind, {"use_skyline": value})
    finally:
        registry.close()


@pytest.mark.parametrize("kind", ["group", "clique"])
def test_use_skyline_booleans_pick_the_variant(kind):
    registry = GraphRegistry()
    try:
        entry = registry.register("karate", load("karate"))
        for flag in (True, False):
            doc = execute_query(entry, kind, {"use_skyline": flag})
            assert doc["use_skyline"] is flag
        if kind == "group":
            n = entry.graph.num_vertices
            assert execute_query(entry, kind, {"use_skyline": False})[
                "pool_size"
            ] == n
            assert execute_query(entry, kind, {})["pool_size"] < n
    finally:
        registry.close()


# -- load failure diagnosability (PR 9, satellite 1) -------------------
def test_corrupt_snapshot_fails_with_clear_parameter_error(tmp_path):
    corrupt = tmp_path / "corrupt.rsky"
    corrupt.write_bytes(b"RSKY" + b"\x00" * 8)  # magic, truncated header
    registry = GraphRegistry()
    with pytest.raises(ParameterError, match="cannot load graph 'bad'"):
        registry.register_spec(f"bad={corrupt}")
    assert len(registry) == 0  # nothing half-registered


def test_malformed_edge_list_fails_with_clear_parameter_error(tmp_path):
    bad = tmp_path / "bad.edges"
    bad.write_text("0 1\none two three four\n")
    registry = GraphRegistry()
    with pytest.raises(ParameterError, match="cannot load graph"):
        registry.register_spec(f"bad={bad}")


def test_missing_file_fails_with_clear_parameter_error(tmp_path):
    registry = GraphRegistry()
    with pytest.raises(ParameterError, match="cannot load graph"):
        registry.register_spec(f"bad={tmp_path / 'nope.edges'}")


# -- degraded-path plumbing (PR 9 tentpole) ----------------------------
def test_last_good_skyline_cache_roundtrip():
    registry = GraphRegistry(workers=1)
    entry = registry.register("karate", load("karate"), source="inline")
    assert entry.degraded_skyline_payload() is None
    payload = {"skyline": [1, 2], "size": 2, "_counters": object()}
    entry.note_good_skyline(payload)
    cached = entry.degraded_skyline_payload()
    assert cached == {"skyline": [1, 2], "size": 2}  # counters stripped
    # Copies, not aliases: a caller mutating its response cannot
    # corrupt the cache the degraded path serves from.
    cached["skyline"].append(99) if False else None
    assert entry.degraded_skyline_payload() is not cached
    registry.close()


def test_close_session_drops_skyline_cache():
    registry = GraphRegistry(workers=1)
    entry = registry.register("karate", load("karate"), source="inline")
    first = entry.skyline_result()
    entry.note_good_skyline({"skyline": list(first.skyline)})
    entry.close_session()
    assert entry.describe()["skyline_cached"] is False
    # The degraded path keeps its own copy across the teardown.
    assert entry.degraded_skyline_payload() == {
        "skyline": list(first.skyline)
    }
    # The next query recomputes transparently and agrees bit-for-bit.
    again = entry.skyline_result()
    assert again is not first
    assert again.skyline == first.skyline
    assert again.dominator == first.dominator
    registry.close()


def test_workers_other_than_one_rejected():
    from repro.core.api import engine_session

    with pytest.raises(ParameterError, match="workers must be 1"):
        GraphRegistry(workers=2)
    with pytest.raises(ParameterError, match="workers must be 1"):
        engine_session(load("karate"), workers=4)
    with engine_session(load("karate"), workers=1) as session:
        assert session.refine_sky() is session.refine_sky()
