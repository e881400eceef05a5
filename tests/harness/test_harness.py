"""Tests for the measurement harness."""

import os

from repro.harness.memory import format_bytes, measure_peak
from repro.harness.runner import FigureReport
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
