"""Tests for the measurement harness."""

import os

import pytest

from repro.errors import ParameterError
from repro.harness.benchjson import validate_entry
from repro.harness.memory import format_bytes, measure_peak
from repro.harness.runner import FigureReport, time_rounds
from repro.harness.table import format_table


class TestMemory:
    def test_measures_allocation(self):
        _result, peak = measure_peak(lambda: bytearray(512 * 1024))
        assert peak >= 512 * 1024

    def test_returns_result(self):
        result, _peak = measure_peak(sorted, [3, 1, 2])
        assert result == [1, 2, 3]

    def test_format_bytes(self):
        assert format_bytes(512) == "512.0 B"
        assert format_bytes(2048) == "2.0 KB"
        assert format_bytes(3 * 1024 * 1024) == "3.0 MB"
        assert format_bytes(5 * 1024**3) == "5.0 GB"


class TestTable:
    def test_alignment_and_headers(self):
        out = format_table(
            ("name", "n"), [("karate", 34), ("bombing", 64)]
        )
        lines = out.splitlines()
        assert lines[0].startswith("name")
        assert "34" in out and "64" in out

    def test_title_line(self):
        out = format_table(("a",), [(1,)], title="T")
        assert out.splitlines()[0] == "T"

    def test_float_rendering(self):
        out = format_table(("x",), [(0.123456,), (1234.5,), (12.34,)])
        assert "0.123" in out
        assert "1,234" in out or "1,235" in out
        assert "12.3" in out

    def test_thousands_separator_for_ints(self):
        out = format_table(("m",), [(1090109,)])
        assert "1,090,109" in out


class TestFigureReport:
    def test_render_contains_everything(self):
        report = FigureReport(
            artifact="Figure 99",
            title="demo",
            headers=("dataset", "seconds"),
        )
        report.add_row("karate", 0.5)
        report.add_note("shape holds")
        text = report.render()
        assert "Figure 99" in text
        assert "karate" in text
        assert "note: shape holds" in text

    def test_write_creates_file(self, tmp_path):
        report = FigureReport("Figure 1", "t", ("a",))
        report.add_row(1)
        path = report.write(str(tmp_path))
        assert os.path.exists(path)
        assert "figure_1" in os.path.basename(path)


class TestTimeRounds:
    @staticmethod
    def fake_clock(walls):
        """A clock whose successive start/stop pairs are ``walls`` apart."""
        ticks = []
        now = 0.0
        for wall in walls:
            ticks += [now, now + wall]
            now += wall + 100.0
        return iter(ticks).__next__

    def test_rounds_and_statistics(self):
        calls = []
        timing = time_rounds(
            lambda: calls.append(1) or len(calls),
            5,
            clock=self.fake_clock([4.0, 1.0, 3.0, 2.0, 9.0]),
        )
        assert len(calls) == 5
        assert timing.walls == (4.0, 1.0, 3.0, 2.0, 9.0)
        assert timing.result == 5  # the last round's return value
        assert timing.min_s == 1.0
        assert timing.median_s == 3.0
        assert timing.iqr_s == 2.0  # inclusive quartiles 2.0 and 4.0

    def test_one_round_has_no_spread(self):
        timing = time_rounds(lambda: None, 1, clock=self.fake_clock([0.5]))
        assert timing.min_s == timing.median_s == 0.5
        assert timing.iqr_s == 0.0

    def test_setup_runs_once_per_round_outside_the_clock(self):
        made = []

        def setup():
            made.append(object())
            return made[-1]

        seen = []
        timing = time_rounds(
            seen.append, 3, setup=setup, clock=self.fake_clock([1, 1, 1])
        )
        assert seen == made and len(made) == 3
        assert timing.walls == (1, 1, 1)

    def test_rounds_must_be_positive(self):
        with pytest.raises(ParameterError):
            time_rounds(lambda: None, 0)

    def test_entry_is_a_valid_row(self):
        timing = time_rounds(
            lambda: None, 3, clock=self.fake_clock([3.0, 1.0, 2.0])
        )
        row = timing.entry(
            bench="b", instance="i", algorithm="a", extra={"k": 4}
        )
        assert validate_entry(row) == []
        assert row["wall_s"] == 1.0
        assert row["extra"] == {
            "k": 4,
            "rounds": 3,
            "median_s": 2.0,
            "iqr_s": 1.0,
        }
