"""Tests for the repro-sky command-line interface."""

import socket

import pytest

from repro.cli import build_parser, main


def test_datasets_lists_registry(capsys):
    assert main(["datasets"]) == 0
    out = capsys.readouterr().out
    assert "karate" in out
    assert "wikitalk_sim" in out


def test_skyline_on_dataset(capsys):
    assert main(["skyline", "--dataset", "karate"]) == 0
    out = capsys.readouterr().out
    assert "|R| = 15" in out


def test_skyline_with_stats_and_vertices(capsys):
    code = main(
        ["skyline", "--dataset", "karate", "--stats", "--show-vertices"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "pair_tests" in out


def test_skyline_algorithm_choice(capsys):
    assert main(["skyline", "--dataset", "karate", "--algorithm", "base"]) == 0
    assert "BaseSky" in capsys.readouterr().out


def test_skyline_from_edge_list(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text("0 1\n1 2\n2 0\n")
    assert main(["skyline", "--edge-list", str(path)]) == 0
    assert "|R| = 1" in capsys.readouterr().out


def test_group_closeness(capsys):
    assert main(["group", "--dataset", "karate", "--k", "2"]) == 0
    out = capsys.readouterr().out
    assert "NeiSky group-closeness" in out


def test_group_harmonic_base_variant(capsys):
    code = main(
        [
            "group",
            "--dataset",
            "karate",
            "--measure",
            "harmonic",
            "--k",
            "2",
            "--no-skyline",
        ]
    )
    assert code == 0
    assert "Base group-harmonic" in capsys.readouterr().out


def test_group_strategy_defaults_to_lazy(capsys):
    assert main(["group", "--dataset", "karate", "--k", "4"]) == 0
    lazy = capsys.readouterr().out
    assert "saved by laziness" in lazy
    args = ["group", "--dataset", "karate", "--k", "4", "--strategy", "eager"]
    assert main(args) == 0
    eager = capsys.readouterr().out
    assert "saved by laziness" not in eager
    # Same group either way.
    assert lazy.split("(")[0] == eager.split("(")[0]


def test_clique_single(capsys):
    assert main(["clique", "--dataset", "karate"]) == 0
    out = capsys.readouterr().out
    assert "size 5" in out


def test_clique_topk_base(capsys):
    code = main(
        ["clique", "--dataset", "karate", "--top-k", "3", "--no-skyline"]
    )
    assert code == 0
    assert "#3" in capsys.readouterr().out


def test_unknown_dataset_is_clean_error(capsys):
    assert main(["skyline", "--dataset", "nope"]) == 2
    assert "error:" in capsys.readouterr().err


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_parser_rejects_both_sources():
    with pytest.raises(SystemExit):
        build_parser().parse_args(
            ["skyline", "--dataset", "x", "--edge-list", "y"]
        )


def test_skyline_layers_flag(capsys):
    assert main(["skyline", "--dataset", "karate", "--layers"]) == 0
    out = capsys.readouterr().out
    assert "layer 1: 15 vertices" in out


def test_stats_command(capsys):
    assert main(["stats", "--dataset", "karate"]) == 0
    out = capsys.readouterr().out
    assert "triangles           45" in out
    assert "max degree          17" in out


# ---------------------------------------------------------------------
# Error paths
# ---------------------------------------------------------------------
@pytest.mark.parametrize("flag", ["--workers", "--timeout", "--data-plane"])
def test_pool_flags_are_gone(flag):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["skyline", "--dataset", "karate", flag, "2"])
    assert exc.value.code == 2


def test_unknown_algorithm_is_parameter_error(capsys):
    code = main(["skyline", "--dataset", "karate", "--algorithm", "bogus"])
    assert code == 2
    assert "unknown skyline algorithm" in capsys.readouterr().err


def test_malformed_edge_list_names_file_and_line(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("0 1\nnot-an-edge\n")
    assert main(["skyline", "--edge-list", str(path)]) == 2
    err = capsys.readouterr().err
    assert "bad.txt" in err
    assert "line 2" in err


@pytest.mark.parametrize(
    "data", [b"0 1\n1 \xff\xfe\n", b"0 1\n1 99999999999999999999999\n"]
)
def test_hostile_edge_list_is_one_line_error(tmp_path, capsys, data):
    path = tmp_path / "hostile.txt"
    path.write_bytes(data)
    assert main(["skyline", "--edge-list", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "hostile.txt: line 2" in err
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_sweep_runs_grid(capsys):
    code = main(
        [
            "sweep",
            "--datasets",
            "karate",
            "--algorithms",
            "filter_refine,base",
            "--trials",
            "2",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "dataset" in out and "wall_s" in out
    # 2 algorithms x 2 trials = 4 rows, all on karate.
    assert out.count("karate") == 4


def test_sweep_checkpoint_then_resume(tmp_path, capsys):
    path = str(tmp_path / "ck.json")
    argv = [
        "sweep",
        "--datasets",
        "karate",
        "--algorithms",
        "filter_refine",
        "--trials",
        "2",
        "--checkpoint",
        path,
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert f"checkpoint: {path} (2 cells)" in first

    assert main(argv + ["--resume"]) == 0
    second = capsys.readouterr().out
    assert "resilience_resumed_cells = 2" in second
    # Resumed cells reuse the journaled measurements, so the report
    # (table included) matches the uninterrupted run line for line.
    assert first.splitlines()[:4] == second.splitlines()[:4]


def test_sweep_resume_requires_checkpoint(capsys):
    code = main(["sweep", "--datasets", "karate", "--resume"])
    assert code == 2
    assert "--resume requires --checkpoint" in capsys.readouterr().err


def test_sweep_rejects_bad_trials(capsys):
    code = main(["sweep", "--datasets", "karate", "--trials", "0"])
    assert code == 2
    assert "--trials must be a positive integer" in capsys.readouterr().err


def test_sweep_rejects_empty_dataset_list(capsys):
    code = main(["sweep", "--datasets", ","])
    assert code == 2
    assert "at least one item" in capsys.readouterr().err


def test_sweep_rejects_corrupt_checkpoint(tmp_path, capsys):
    path = tmp_path / "ck.json"
    path.write_text("{not json")
    code = main(
        ["sweep", "--datasets", "karate", "--checkpoint", str(path)]
    )
    assert code == 2
    assert "not readable JSON" in capsys.readouterr().err
    # The broken file was NOT clobbered.
    assert path.read_text() == "{not json"


def test_keyboard_interrupt_is_clean_exit_130(monkeypatch, capsys):
    import repro.cli as cli

    def _interrupt(args):
        raise KeyboardInterrupt

    monkeypatch.setitem(cli._COMMANDS, "stats", _interrupt)
    code = main(["stats", "--dataset", "karate"])
    assert code == 130
    err = capsys.readouterr().err
    assert err.count("\n") == 1  # exactly one line, no traceback
    assert "checkpoint (if any) kept" in err


def test_serve_validates_queue_capacity(capsys):
    code = main(
        [
            "serve",
            "--graph",
            "karate",
            "--queue-capacity",
            "0",
            "--max-requests",
            "1",
        ]
    )
    assert code == 2
    assert "queue_capacity" in capsys.readouterr().err


def test_serve_rejects_unknown_dataset(capsys):
    code = main(["serve", "--graph", "atlantis", "--max-requests", "1"])
    assert code == 2
    assert "atlantis" in capsys.readouterr().err


def test_serve_requires_graph():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["serve"])


def test_serve_corrupt_snapshot_is_one_line_error(capsys, tmp_path):
    """A truncated .rsky (valid magic, garbage after) must fail
    registration with one clear `error:` line, never a traceback."""
    corrupt = tmp_path / "corrupt.rsky"
    corrupt.write_bytes(b"RSKY" + b"\xff" * 16)
    code = main(
        ["serve", "--graph", f"g={corrupt}", "--max-requests", "0"]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot load graph 'g'")
    assert err.count("\n") == 1  # exactly the one line
    assert "Traceback" not in err


def test_serve_malformed_edge_list_is_one_line_error(capsys, tmp_path):
    bad = tmp_path / "bad.edges"
    bad.write_text("0 1\nnot numbers here\n")
    code = main(["serve", "--graph", f"g={bad}", "--max-requests", "0"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot load graph 'g'")
    assert "Traceback" not in err


def test_serve_missing_file_is_one_line_error(capsys, tmp_path):
    code = main(
        [
            "serve",
            "--graph",
            f"g={tmp_path / 'missing.edges'}",
            "--max-requests",
            "0",
        ]
    )
    assert code == 2
    assert capsys.readouterr().err.startswith("error: cannot load graph")


def test_rebuild_budget_flag_is_gone():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(
            ["serve", "--graph", "karate", "--max-session-rebuilds", "2"]
        )
    assert exc.value.code == 2


def test_serve_validates_supervision_flags(capsys):
    code = main(
        [
            "serve",
            "--graph",
            "karate",
            "--breaker-threshold",
            "0",
            "--max-requests",
            "0",
        ]
    )
    assert code == 2
    assert "breaker_threshold" in capsys.readouterr().err


def _serve_error(capsys, *flags) -> str:
    """Run ``serve`` on karate with ``flags``; assert exit 2 and one
    ``error:`` line, and return that line."""
    code = main(["serve", "--graph", "karate", "--max-requests", "0", *flags])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    return err


@pytest.mark.parametrize("port", ["70000", "-5"])
def test_serve_rejects_out_of_range_port(capsys, port):
    assert f"port must be 0-65535, got {port}" in _serve_error(
        capsys, "--port", port
    )


@pytest.mark.parametrize(
    "flag, knob",
    [
        ("--request-timeout", "default_timeout_s"),
        ("--query-deadline", "query_deadline_s"),
        ("--breaker-cooldown", "breaker_cooldown_s"),
    ],
)
def test_serve_rejects_nan_knob(capsys, flag, knob):
    assert f"{knob} must be" in _serve_error(capsys, flag, "nan")


def test_serve_port_in_use_is_one_line_error(capsys):
    with socket.socket() as held:
        held.bind(("127.0.0.1", 0))
        held.listen()
        port = held.getsockname()[1]
        err = _serve_error(capsys, "--port", str(port))
    assert err.startswith(f"error: cannot listen on 127.0.0.1:{port}: ")


def test_serve_supervision_flags_accepted(capsys):
    """The PR 9 resilience + chaos flags all parse and the server runs
    its full lifecycle under them."""
    code = main(
        [
            "serve",
            "--graph",
            "karate",
            "--port",
            "0",
            "--max-requests",
            "0",
            "--query-deadline",
            "5",
            "--breaker-threshold",
            "2",
            "--breaker-cooldown",
            "0.5",
            "--no-degraded-cache",
            "--chaos-seed",
            "3",
            "--chaos-rate",
            "0.5",
            "--chaos-kinds",
            "engine-exception,slow",
        ]
    )
    assert code == 0
    assert "serving on http://" in capsys.readouterr().out


def test_serve_rejects_unknown_chaos_kind(capsys):
    """A typo'd --chaos-kinds is a bad flag (`error:` + exit 2), not a
    traceback out of ServeFaultPlan's constructor."""
    code = main(
        [
            "serve",
            "--graph",
            "karate",
            "--max-requests",
            "0",
            "--chaos-seed",
            "3",
            "--chaos-kinds",
            "engine-exception,engine-explosion",
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "engine-explosion" in err


def test_serve_zero_requests_starts_and_exits(capsys):
    """--max-requests 0 brings the full server up and straight down:
    registry + sessions + listener lifecycle without any traffic."""
    code = main(
        [
            "serve",
            "--graph",
            "karate",
            "--port",
            "0",
            "--max-requests",
            "0",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "hosting karate" in out
    assert "serving on http://127.0.0.1:" in out
