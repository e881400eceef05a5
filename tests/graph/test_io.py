"""Tests for edge-list reading and writing."""

import io

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import GraphFormatError
from repro.graph.io import (
    MAX_VERTEX_ID,
    read_edge_list,
    read_konect,
    write_edge_list,
)


def test_basic_parse():
    g = read_edge_list(io.StringIO("0 1\n1 2\n"))
    assert g.num_vertices == 3
    assert g.num_edges == 2


def test_comments_and_blank_lines_skipped():
    text = "# a comment\n\n0 1\n   \n# another\n1 2\n"
    g = read_edge_list(io.StringIO(text))
    assert g.num_edges == 2


def test_konect_style():
    text = "% meta\n1 2\n2 3\n"
    g = read_konect(io.StringIO(text))
    assert g.num_vertices == 3
    assert g.has_edge(0, 1)
    assert g.has_edge(1, 2)


def test_compaction_of_sparse_ids():
    g = read_edge_list(io.StringIO("10 90\n90 40\n"))
    assert g.num_vertices == 3
    # Sorted compaction: 10→0, 40→1, 90→2.
    assert g.has_edge(0, 2)
    assert g.has_edge(1, 2)
    assert not g.has_edge(0, 1)


def test_no_compaction_keeps_ids():
    g = read_edge_list(io.StringIO("0 4\n"), compact=False)
    assert g.num_vertices == 5
    assert g.degree(2) == 0


def test_duplicate_edges_deduplicated_by_default():
    g = read_edge_list(io.StringIO("0 1\n1 0\n0 1\n"))
    assert g.num_edges == 1


def test_duplicates_rejected_when_disallowed():
    with pytest.raises(GraphFormatError, match="duplicate"):
        read_edge_list(io.StringIO("0 1\n1 0\n"), allow_duplicates=False)


def test_self_loops_silently_dropped():
    g = read_edge_list(io.StringIO("0 0\n0 1\n"))
    assert g.num_edges == 1


def test_malformed_line_raises():
    with pytest.raises(GraphFormatError, match="line 1"):
        read_edge_list(io.StringIO("justone\n"))


def test_non_integer_raises():
    with pytest.raises(GraphFormatError, match="non-integer"):
        read_edge_list(io.StringIO("a b\n"))


def test_negative_after_base_raises():
    with pytest.raises(GraphFormatError, match="negative"):
        read_edge_list(io.StringIO("0 1\n"), base=1)


def test_malformed_row_reports_filename_and_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 1\nbroken\n")
    with pytest.raises(GraphFormatError, match=r"bad\.txt: line 2"):
        read_edge_list(str(path))


def test_non_integer_row_reports_filename_and_line(tmp_path):
    path = tmp_path / "words.txt"
    path.write_text("a b\n")
    with pytest.raises(GraphFormatError, match=r"words\.txt: line 1"):
        read_edge_list(str(path))


def test_missing_file_is_format_error(tmp_path):
    path = tmp_path / "absent.txt"
    with pytest.raises(GraphFormatError, match=r"absent\.txt"):
        read_edge_list(str(path))


def test_stream_errors_use_placeholder_label():
    with pytest.raises(GraphFormatError, match=r"<edge list>: line 1"):
        read_edge_list(io.StringIO("justone\n"))


def test_open_file_errors_use_its_name(tmp_path):
    path = tmp_path / "named.txt"
    path.write_text("0 1\n0 1\n")
    with open(path, "r", encoding="utf-8") as fh:
        with pytest.raises(GraphFormatError, match=r"named\.txt: duplicate"):
            read_edge_list(fh, allow_duplicates=False)


def test_non_utf8_bytes_report_filename_and_line(tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"0 1\n1 \xff2\n")
    with pytest.raises(GraphFormatError, match=r"latin1\.txt: line 2: not valid UTF-8"):
        read_edge_list(str(path))


def test_non_utf8_comment_is_rejected(tmp_path):
    path = tmp_path / "caf.txt"
    path.write_bytes(b"0 1\n# caf\xe9\n1 2\n")
    with pytest.raises(GraphFormatError, match=r"caf\.txt: line 2"):
        read_edge_list(str(path))


def test_strict_caller_stream_with_bad_bytes(tmp_path):
    path = tmp_path / "strict.txt"
    path.write_bytes(b"0 1\n\xff\xfe\n")
    with open(path, "r", encoding="utf-8") as fh:
        with pytest.raises(GraphFormatError, match=r"strict\.txt: line \d+"):
            read_edge_list(fh)


def test_vertex_id_past_int64_raises():
    with pytest.raises(GraphFormatError, match="line 2: vertex id"):
        read_edge_list(io.StringIO("0 1\n1 99999999999999999999999\n"))


def test_vertex_id_at_int64_limit_parses():
    g = read_edge_list(io.StringIO(f"0 {MAX_VERTEX_ID}\n"))
    assert g.num_vertices == 2
    assert g.has_edge(0, 1)


def test_uncompacted_id_past_int32_raises():
    # compact=False sizes the CSR by the largest ID; int32 indices cap it.
    with pytest.raises(GraphFormatError, match="compact=True"):
        read_edge_list(io.StringIO(f"0 {1 << 31}\n"), compact=False)


def test_empty_input_is_empty_graph():
    for compact in (True, False):
        g = read_edge_list(io.StringIO("# nothing\n"), compact=compact)
        assert (g.num_vertices, g.num_edges) == (0, 0)


#: Byte alphabet that reaches every branch of the line parser: digits,
#: huge IDs, signs, separators, comments, CR/LF and undecodable bytes.
EDGE_LIST_TOKENS = st.sampled_from(
    [b"0", b"1", b"7", b"42", b"9" * 25, b"-", b"+", b"_", b" ", b"\t",
     b"\n", b"\r", b"#", b"%", b"\x00", b"\xff", b"\xc3\xa9", b"\xe2\x80"]
)


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    st.one_of(
        st.binary(max_size=64),
        st.lists(EDGE_LIST_TOKENS, max_size=40).map(b"".join),
    )
)
def test_any_bytes_parse_or_raise_format_error(tmp_path_factory, data):
    """Every byte string is a graph or one :class:`GraphFormatError`."""
    path = tmp_path_factory.mktemp("bytes") / "g.txt"
    path.write_bytes(data)
    try:
        g = read_edge_list(str(path))
    except GraphFormatError as exc:
        assert str(exc).startswith(f"{path}")
        assert "\n" not in str(exc)
        return
    for u in g.vertices():
        nbrs = g.neighbors(u)
        assert list(nbrs) == sorted(set(nbrs)) and u not in nbrs
        assert all(g.has_edge(v, u) for v in nbrs)


def test_extra_columns_tolerated():
    # Many dumps carry weights/timestamps in later columns.
    g = read_edge_list(io.StringIO("0 1 42 1999\n"))
    assert g.num_edges == 1


def test_roundtrip_via_file(tmp_path):
    path = tmp_path / "g.txt"
    g = read_edge_list(io.StringIO("0 1\n1 2\n2 0\n"))
    write_edge_list(g, str(path))
    g2 = read_edge_list(str(path))
    assert g2 == g


def test_write_to_stream(k5):
    buf = io.StringIO()
    write_edge_list(k5, buf)
    lines = [l for l in buf.getvalue().splitlines() if not l.startswith("#")]
    assert len(lines) == 10
