"""Unit tests for the BENCH_skyline.json reader/writer."""

import glob
import json
import os
import re

from repro.harness.benchjson import (
    SCHEMA_VERSION,
    bench_entry,
    entry_key,
    load_bench_json,
    merge_entries,
    validate_entry,
    validate_file,
    write_bench_json,
)

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)


def test_bench_entry_shape():
    e = bench_entry(
        bench="b",
        instance="i",
        algorithm="a",
        wall_s=1.5,
        refine_s=0.5,
        counters={"pair_tests": 3},
        extra={"speedup": 2.0},
    )
    assert entry_key(e) == ("b", "i", "a")
    assert e["wall_s"] == 1.5
    assert e["refine_s"] == 0.5
    assert e["counters"] == {"pair_tests": 3}
    assert e["extra"] == {"speedup": 2.0}


def test_bench_entry_optional_fields_omitted():
    e = bench_entry(bench="b", instance="i", algorithm="a", wall_s=1.0)
    assert "refine_s" not in e
    assert "counters" not in e
    assert "extra" not in e


def test_merge_replaces_same_key_keeps_rest():
    old = [
        bench_entry(bench="b", instance="x", algorithm="a", wall_s=1.0),
        bench_entry(bench="b", instance="y", algorithm="a", wall_s=2.0),
    ]
    new = [bench_entry(bench="b", instance="x", algorithm="a", wall_s=9.0)]
    merged = merge_entries(old, new)
    assert len(merged) == 2
    by_key = {entry_key(e): e for e in merged}
    assert by_key[("b", "x", "a")]["wall_s"] == 9.0
    assert by_key[("b", "y", "a")]["wall_s"] == 2.0
    # Sorted by key.
    assert [entry_key(e) for e in merged] == sorted(entry_key(e) for e in merged)


def test_rerun_without_a_leg_drops_its_rows(tmp_path):
    path = str(tmp_path / "BENCH_skyline.json")
    write_bench_json(
        path,
        [
            bench_entry(bench="b", instance="x", algorithm="a", wall_s=1.0),
            bench_entry(bench="b", instance="x", algorithm="old", wall_s=2.0),
            bench_entry(bench="c", instance="x", algorithm="a", wall_s=3.0),
        ],
    )
    merged = write_bench_json(
        path,
        [bench_entry(bench="b", instance="x", algorithm="a", wall_s=4.0)],
    )
    assert [(entry_key(e), e["wall_s"]) for e in merged] == [
        (("b", "x", "a"), 4.0),
        (("c", "x", "a"), 3.0),
    ]
    assert load_bench_json(path) == merged


def test_write_and_load_roundtrip(tmp_path):
    path = str(tmp_path / "BENCH_skyline.json")
    first = [bench_entry(bench="b", instance="x", algorithm="a", wall_s=1.0)]
    write_bench_json(path, first)
    assert load_bench_json(path) == first

    doc = json.load(open(path))
    assert doc["schema"] == SCHEMA_VERSION

    second = [
        bench_entry(bench="b", instance="x", algorithm="a", wall_s=3.0),
        bench_entry(bench="c", instance="x", algorithm="a", wall_s=4.0),
    ]
    merged = write_bench_json(path, second)
    assert len(merged) == 2
    assert load_bench_json(path) == merged
    assert not [
        f for f in os.listdir(tmp_path) if f.startswith(".bench_json_")
    ]


def test_load_missing_or_alien_documents(tmp_path):
    assert load_bench_json(str(tmp_path / "absent.json")) == []

    garbage = tmp_path / "garbage.json"
    garbage.write_text("not json {")
    assert load_bench_json(str(garbage)) == []

    alien = tmp_path / "alien.json"
    alien.write_text(json.dumps({"schema": 999, "entries": [{"x": 1}]}))
    assert load_bench_json(str(alien)) == []

    # An alien document is replaced wholesale on the next write.
    write_bench_json(
        str(alien),
        [bench_entry(bench="b", instance="i", algorithm="a", wall_s=1.0)],
    )
    assert len(load_bench_json(str(alien))) == 1


class TestValidateEntry:
    def test_full_entry_valid(self):
        e = bench_entry(
            bench="b",
            instance="i",
            algorithm="a",
            wall_s=1.5,
            refine_s=0.5,
            counters={"pair_tests": 3},
            extra={"speedup": 2.0},
        )
        assert validate_entry(e) == []

    def test_missing_required_key(self):
        e = {"bench": "b", "instance": "i", "wall_s": 1.0}
        assert any("algorithm" in p for p in validate_entry(e))

    def test_bad_wall_time(self):
        base = {"bench": "b", "instance": "i", "algorithm": "a"}
        for bad in (-1.0, "fast", None, True, float("nan")):
            assert validate_entry({**base, "wall_s": bad})

    def test_unknown_keys_rejected(self):
        e = bench_entry(bench="b", instance="i", algorithm="a", wall_s=1.0)
        e["speedup"] = 2.0
        assert any("unknown keys" in p for p in validate_entry(e))

    def test_non_dict(self):
        assert validate_entry([1, 2]) == ["entry: not an object"]


class TestValidateFile:
    def write(self, tmp_path, doc):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_written_document_validates(self, tmp_path):
        path = str(tmp_path / "bench.json")
        write_bench_json(
            path,
            [
                bench_entry(
                    bench="b", instance="i", algorithm="a", wall_s=1.0
                ),
                bench_entry(
                    bench="b",
                    instance="i",
                    algorithm="z",
                    wall_s=2.0,
                    extra={"speedup_vs_scalar": 3.0},
                ),
            ],
        )
        assert validate_file(path) == []

    def test_missing_file(self, tmp_path):
        problems = validate_file(str(tmp_path / "absent.json"))
        assert problems and "unreadable" in problems[0]

    def test_garbage_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{ not json")
        problems = validate_file(str(path))
        assert problems and "not JSON" in problems[0]

    def test_wrong_schema_version(self, tmp_path):
        path = self.write(tmp_path, {"schema": 99, "entries": []})
        assert any("schema" in p for p in validate_file(path))

    def test_entries_must_be_list(self, tmp_path):
        path = self.write(tmp_path, {"schema": SCHEMA_VERSION,
                                     "entries": {}})
        assert any("'entries'" in p for p in validate_file(path))

    def test_duplicate_keys_flagged(self, tmp_path):
        e = bench_entry(bench="b", instance="i", algorithm="a", wall_s=1.0)
        path = self.write(
            tmp_path, {"schema": SCHEMA_VERSION, "entries": [e, dict(e)]}
        )
        assert any("duplicate key" in p for p in validate_file(path))

    def test_bad_entry_located_by_index(self, tmp_path):
        good = bench_entry(
            bench="b", instance="i", algorithm="a", wall_s=1.0
        )
        path = self.write(
            tmp_path,
            {"schema": SCHEMA_VERSION, "entries": [good, {"bench": 3}]},
        )
        assert any(p.startswith("entries[1]") for p in validate_file(path))


def test_committed_rows_have_a_writer():
    # A row no script writes any more can never be refreshed or dropped
    # by a re-run (merge_entries carries it over), so it would outlive
    # the code it measured.  Writers name their bench either inline
    # (``bench="x"``) or through a module constant (``BENCH = "x"``).
    written = set()
    for script in glob.glob(os.path.join(REPO_ROOT, "benchmarks", "*.py")):
        with open(script, encoding="utf-8") as fh:
            written.update(
                re.findall(r'\bbench\s*=\s*"([^"]+)"', fh.read(), re.I)
            )
    committed = load_bench_json(os.path.join(REPO_ROOT, "BENCH_skyline.json"))
    assert committed
    orphans = sorted({e["bench"] for e in committed} - written)
    assert not orphans, f"rows no benchmarks/*.py script writes: {orphans}"
