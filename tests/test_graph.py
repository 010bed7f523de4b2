import re
import tracemalloc

import numpy as np
import pytest

import sgdnet.atomic
import sgdnet.graph
from sgdnet.graph import (
    DataError,
    EdgeList,
    ParseError,
    SignedEdge,
    as_edge_list,
    build_graph,
    load_edge_list,
    load_id_map,
    normalize,
    read_edge_tsv,
    save_edge_list,
    save_id_map,
)

from helpers import (
    bitcoin_alpha_path,
    bitcoin_otc_path,
    column_sums_of_b,
    dense_block_operator,
    edge_rows,
    exactly,
    per_sign_adjacency,
    per_sign_operators,
    reference_load_edge_list,
    reference_read_edge_tsv,
)
from synthetic import planted_partition_graph, random_signed_graph


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------- loading


def test_load_tsv_single_edge(tmp_path):
    path = write(tmp_path, "e.tsv", "0\t1\t-1\n")
    edges, n, id_map = load_edge_list(path, "tsv-sign")
    assert edge_rows(edges) == [SignedEdge(0, 1, -1)]
    assert n == 2
    assert id_map == {"0": 0, "1": 1}


def test_load_csv_rating_sign_and_remap(tmp_path):
    path = write(tmp_path, "e.csv", "7,12,-10,1400000000\n")
    edges, n, _ = load_edge_list(path, "csv-rating")
    assert edge_rows(edges) == [SignedEdge(0, 1, -1)]
    assert n == 2


def test_load_remaps_by_first_appearance(tmp_path):
    path = write(tmp_path, "e.tsv", "5\t3\t1\n3\t9\t-1\n")
    edges, n, id_map = load_edge_list(path, "tsv-sign")
    assert id_map == {"5": 0, "3": 1, "9": 2}
    assert edge_rows(edges) == [SignedEdge(0, 1, 1), SignedEdge(1, 2, -1)]
    assert n == 3


def test_load_duplicate_keeps_last(tmp_path):
    path = write(tmp_path, "e.tsv", "0\t1\t1\n0\t1\t-1\n")
    edges, _, _ = load_edge_list(path, "tsv-sign")
    assert edge_rows(edges) == [SignedEdge(0, 1, -1)]


def test_load_skips_comments_and_blanks(tmp_path):
    path = write(tmp_path, "e.tsv", "# header\n\n0\t1\t1\n")
    edges, n, _ = load_edge_list(path, "tsv-sign")
    assert len(edges) == 1 and n == 2


@pytest.mark.parametrize("call, message", [
    (lambda: EdgeList([0, 1], [1], [1, -1]), "edge columns must be 1-d and of one length"),
    (lambda: EdgeList([[0]], [[1]], [[1]]), "edge columns must be 1-d and of one length"),
    (lambda: load_edge_list("unread.tsv", "xml"),
     "unknown edge format 'xml'; expected one of ['csv-rating', 'tsv-sign']"),
    (lambda: random_signed_graph(1), "need at least 2 nodes, got 1"),
    (lambda: planted_partition_graph(4), "need a node count divisible by 4 and at least 8, got 4"),
    (lambda: planted_partition_graph(10),
     "need a node count divisible by 4 and at least 8, got 10"),
], ids=["ragged-columns", "2-d-columns", "unknown-format", "random-one-node",
        "planted-too-small", "planted-not-divisible"])
def test_argument_checks(call, message):
    with pytest.raises(ValueError, match=exactly(message)):
        call()


BOM = "\ufeff"


# The edges 1->2 +, 2->1 -, 1->3 +. With a space before the first id the
# whole-file parse declines the text and the per-line reader takes it.
@pytest.mark.parametrize("per_line", [False, True], ids=["whole-file", "per-line"])
@pytest.mark.parametrize("read, text", [
    (lambda p: load_edge_list(p, "tsv-sign"), "1\t2\t1\n2\t1\t-1\n1\t3\t1\n"),
    (lambda p: load_edge_list(p, "csv-rating"), "1,2,5,0\n2,1,-3,0\n1,3,2,0\n"),
    (read_edge_tsv, "1\t2\t1\n2\t1\t-1\n1\t3\t1\n"),
], ids=["tsv-sign", "csv-rating", "dense-tsv"])
def test_a_leading_byte_order_mark_is_dropped(monkeypatch, tmp_path, read, text, per_line):
    text = " " + text if per_line else text
    plain = write(tmp_path, "plain", text)
    marked = tmp_path / "marked"
    marked.write_bytes((BOM + text).encode("utf-8"))
    assert marked.read_bytes()[:3] == b"\xef\xbb\xbf"
    per_line_reads = []
    data_lines = sgdnet.graph._data_lines
    monkeypatch.setattr(sgdnet.graph, "_data_lines",
                        lambda path: per_line_reads.append(path) or data_lines(path))
    got = outcome(read, str(marked))
    assert got == outcome(read, plain)
    assert len(per_line_reads) == (2 if per_line else 0)
    if read is not read_edge_tsv:
        _, n, id_map = got
        assert n == 3 and set(dict(id_map)) == {"1", "2", "3"}


@pytest.mark.parametrize("read, sep", [
    (lambda p: load_edge_list(p, "tsv-sign"), b"\t"),
    (lambda p: load_edge_list(p, "csv-rating"), b","),
    (read_edge_tsv, b"\t"),
], ids=["tsv-sign", "csv-rating", "dense-tsv"])
@pytest.mark.parametrize("bad", [b"\xff", b"\xc3", b"\xed\xa0\x80"], ids=["ff", "cut", "surrogate"])
def test_a_line_that_is_not_utf8_is_named(tmp_path, read, sep, bad):
    path = tmp_path / "e.txt"
    path.write_bytes(sep.join([b"1", b"2", b"1\r\n# note\n2", bad + b"3", b"1\n"]))
    with pytest.raises(ParseError, match=exactly("line 3: not valid UTF-8")):
        read(path)


def test_load_zero_rating_rejected(tmp_path):
    path = write(tmp_path, "e.csv", "1,2,0,9\n")
    with pytest.raises(DataError):
        load_edge_list(path, "csv-rating")


def test_load_malformed_line_reports_lineno(tmp_path):
    path = write(tmp_path, "e.tsv", "0\t1\t1\nnot a line\n")
    with pytest.raises(ParseError, match="line 2"):
        load_edge_list(path, "tsv-sign")


def test_load_bad_sign_value(tmp_path):
    path = write(tmp_path, "e.tsv", "0\t1\t2\n")
    with pytest.raises(ParseError):
        load_edge_list(path, "tsv-sign")


def test_load_empty_file(tmp_path):
    path = write(tmp_path, "e.tsv", "# only a comment\n")
    with pytest.raises(DataError):
        load_edge_list(path, "tsv-sign")


def test_load_dedup_idempotent(tmp_path):
    text = "4\t2\t1\n2\t4\t-1\n4\t2\t-1\n4\t4\t1\n"
    p1 = write(tmp_path, "a.tsv", text)
    p2 = write(tmp_path, "b.tsv", text)
    (e1, n1, m1), (e2, n2, m2) = (load_edge_list(p, "tsv-sign") for p in (p1, p2))
    assert (edge_rows(e1), n1, m1) == (edge_rows(e2), n2, m2)


def test_id_map_roundtrip(tmp_path):
    path = write(tmp_path, "e.tsv", "9\t4\t1\n4\t9\t-1\n")
    _, _, id_map = load_edge_list(path, "tsv-sign")
    out = tmp_path / "idmap.tsv"
    save_id_map(out, id_map)
    assert load_id_map(out) == id_map


def test_edge_tsv_roundtrip(tmp_path):
    edges = [SignedEdge(0, 1, 1), SignedEdge(2, 0, -1)]
    path = tmp_path / "edges.tsv"
    save_edge_list(path, edges)
    assert edge_rows(read_edge_tsv(path)) == edges


# 0, 9, 10, ..., 10^k - 1, 10^k, ..., 10^18 and 2^63 - 1: every digit count.
_BOUNDARY_IDS = np.sort(
    np.concatenate([[0, 2**63 - 1], 10 ** np.arange(1, 19) - 1, 10 ** np.arange(1, 19)])
)


def _edge_list_case(case):
    rng = np.random.default_rng(4)
    if case == "empty":
        return EdgeList([], [], [])
    if case == "single-row":
        return EdgeList([7], [0], [-1])
    if case == "boundary-ids":
        src, dst = np.meshgrid(_BOUNDARY_IDS, _BOUNDARY_IDS)
        signs = np.where(rng.random(src.size) < 0.5, 1, -1)
        return EdgeList(src.ravel(), dst.ravel(), signs)
    if case == "negative-values":
        values = np.concatenate([-_BOUNDARY_IDS, [-(2**63)]])
        return EdgeList(values, values[::-1], values)
    # More than two blocks, with ids of every width in each block.
    rows = 2 * sgdnet.graph._ROW_BLOCK + 5
    ids = rng.integers(0, 10 ** rng.integers(1, 19, size=(2, rows)))
    return EdgeList(ids[0], ids[1], np.where(rng.random(rows) < 0.8, 1, -1))


@pytest.mark.parametrize(
    "case", ["empty", "single-row", "boundary-ids", "negative-values", "blocks"]
)
def test_saved_edge_list_bytes_equal_per_row_formatting(tmp_path, case):
    edges = _edge_list_case(case)
    path = tmp_path / "edges.tsv"
    save_edge_list(path, edges)
    assert path.read_bytes() == "".join("%d\t%d\t%d\n" % e for e in edge_rows(edges)).encode()


def test_saved_edge_list_bytes_do_not_follow_the_platform_newline(tmp_path, monkeypatch):
    # Text files opened as on Windows turn each "\n" into "\r\n"; the edge
    # file is written as bytes, so its newlines stay "\n".
    def windows_open(file, mode, **kwargs):
        if "b" not in mode:
            kwargs["newline"] = "\r\n"
        return open(file, mode, **kwargs)

    monkeypatch.setattr(sgdnet.atomic, "open", windows_open, raising=False)
    path = tmp_path / "edges.tsv"
    save_edge_list(path, EdgeList([7, 0], [0, 12], [-1, 1]))
    assert path.read_bytes() == b"7\t0\t-1\n0\t12\t1\n"


# ---------------------------------------------------------------- parsers against the per-line reference

# name: (format, file text, whether the whole-array parse takes it)
PARSER_CASES = {
    "comments_blanks_crlf": (
        "tsv-sign", "# header\r\n\r\n5\t3\t1\r\n# mid\r\n3\t9\t-1\r\n\r\n", True),
    "no_final_newline": ("tsv-sign", "5\t3\t1\n3\t9\t-1", True),
    "indented_comment": ("tsv-sign", "  # note\n5\t3\t1\n", False),
    "whitespace_around_fields": ("tsv-sign", " 5 \t3\t-1 \n3\t 9\t+1\n\t\n", False),
    "empty_id": ("tsv-sign", "5\t\t1\n3\t5\t-1\n", False),
    "csv_spaced_time": ("csv-rating", "7,12,-10, 14 \n12,7,3,\x0c1\n", False),
    # A field read as two numbers must not make up for one read as none.
    "csv_split_and_empty_time": ("csv-rating", "7,12,3,1 2\n8,9,4,\n", False),
    "csv_empty_target_split_time": ("csv-rating", "7,,3,1 2\n", False),
    "csv_run_on_and_empty_time": ("csv-rating", "7,12,3,1-\n8,9,4,2 3,\n", False),
    # Only the rating must be finite; the time field is not read.
    "csv_non_finite_time": ("csv-rating", "7,12,3,nan\n12,7,-1,inf\n", False),
    "csv_overflowing_time": ("csv-rating", "7,12,3,1e999\n12,7,-1,2\n", True),
    "leading_zero_ids": ("tsv-sign", "007\t7\t1\n7\t007\t-1\n0\t00\t1\n", False),
    "non_numeric_ids": ("tsv-sign", "alice\tbob\t1\nbob\tcarol\t-1\n", False),
    "signed_ids": ("tsv-sign", "-5\t3\t1\n3\t+5\t-1\n", False),
    "sign_spellings": ("tsv-sign", "1\t2\t01\n2\t3\t-01\n", True),
    "csv_with_time": ("csv-rating", "7,12,-10,1400000000\n12,7,3,1400000001\n", True),
    "csv_without_time": ("csv-rating", "7,12,-10\n12,7,3\n", True),
    "csv_mixed_time": ("csv-rating", "7,12,-10\n12,7,3,1400000001\n", False),
    "csv_fractional": ("csv-rating", "7,12,0.5,1289241911.72836\n12,7,-2.5e0,1.5\n", True),
    "csv_text_time": ("csv-rating", "7,12,4,yesterday\n12,7,-1,today\n", False),
    "duplicates_flip_sign": (
        "tsv-sign", "1\t2\t1\n3\t4\t1\n1\t2\t-1\n5\t6\t-1\n3\t4\t-1\n1\t2\t1\n", True),
    "csv_duplicates_flip_sign": ("csv-rating", "1,2,5,0\n3,4,1,0\n1,2,-5,0\n3,4,-2,0\n", True),
}


def random_edge_text(seed, fmt, lines=3000):
    """Many repeats and sign flips over a small id pool, with comments."""
    rng = np.random.default_rng(seed)
    src, dst = rng.integers(0, 60, size=(2, lines))
    sign = rng.choice([-1, 1], size=lines)
    if fmt == "tsv-sign":
        rows = [f"{u}\t{v}\t{x}" for u, v, x in zip(src, dst, sign)]
    else:
        rows = [f"{u},{v},{x * rng.integers(1, 10)},{i}" for i, (u, v, x) in
                enumerate(zip(src, dst, sign))]
    rows.insert(lines // 2, "# comment")
    return "\n".join(rows) + "\n"


def assert_matches_reference(path, fmt):
    edges, n, id_map = load_edge_list(path, fmt)
    ref_edges, ref_n, ref_map = reference_load_edge_list(path, fmt)
    assert edge_rows(edges) == ref_edges
    assert n == ref_n
    assert list(id_map.items()) == list(ref_map.items())


def forbid_per_line_reader(monkeypatch):
    def fail(path):
        raise AssertionError("the per-line reader ran")

    monkeypatch.setattr(sgdnet.graph, "_data_lines", fail)


@pytest.mark.parametrize("case", sorted(PARSER_CASES))
def test_load_matches_per_line_reference(tmp_path, case):
    fmt, text, _ = PARSER_CASES[case]
    path = tmp_path / "e.txt"
    path.write_bytes(text.encode())
    assert_matches_reference(path, fmt)


@pytest.mark.parametrize("case", sorted(c for c, (_, _, whole) in PARSER_CASES.items() if whole))
def test_common_files_skip_the_per_line_reader(tmp_path, monkeypatch, case):
    fmt, text, _ = PARSER_CASES[case]
    path = tmp_path / "e.txt"
    path.write_bytes(text.encode())
    edges, n, id_map = load_edge_list(path, fmt)
    forbid_per_line_reader(monkeypatch)
    again, n_again, map_again = load_edge_list(path, fmt)
    assert (edge_rows(again), n_again, map_again) == (edge_rows(edges), n, id_map)


# Every id the parser takes must come back from the id map file, among them
# the empty id and a csv id holding a tab.
ID_MAP_CASES = {
    **{case: PARSER_CASES[case][:2] for case in PARSER_CASES},
    "csv_tab_and_empty_ids": ("csv-rating", "5,,1\na\tb, x\ty ,-1\n,5,2\n"),
}


@pytest.mark.parametrize("case", sorted(ID_MAP_CASES))
def test_id_map_roundtrip_keeps_every_parsed_id(tmp_path, case):
    fmt, text = ID_MAP_CASES[case]
    path = tmp_path / "e.txt"
    path.write_bytes(text.encode())
    _, _, id_map = load_edge_list(path, fmt)
    save_id_map(tmp_path / "idmap.tsv", id_map)
    assert load_id_map(tmp_path / "idmap.tsv") == id_map


def test_id_map_drops_a_leading_byte_order_mark(tmp_path):
    path = tmp_path / "idmap.tsv"
    path.write_bytes(b"\xef\xbb\xbf7\t0\n8\t1\n")
    assert load_id_map(path) == {"7": 0, "8": 1}


# A line with no tab, a line whose dense id is not an integer, and a line
# that is not valid UTF-8, on line 3 after a valid line and a blank one.
@pytest.mark.parametrize("bad_line", [b"node7", b"node7\tseven", b"a\tb\t", b"\xffnode7\t2"])
def test_id_map_bad_line_names_the_file_and_line(tmp_path, bad_line):
    path = tmp_path / "idmap.tsv"
    path.write_bytes(b"node1\t0\n\n" + bad_line + b"\nnode2\t1\n")
    with pytest.raises(DataError, match=rf"^{re.escape(str(path))}: line 3: "):
        load_id_map(path)


@pytest.mark.parametrize("fmt", ["tsv-sign", "csv-rating"])
@pytest.mark.parametrize("seed", range(3))
def test_load_matches_reference_on_random_repeats(tmp_path, fmt, seed):
    path = tmp_path / "e.txt"
    path.write_text(random_edge_text(seed, fmt))
    assert_matches_reference(path, fmt)


# Field texts that numpy may read as no number, two numbers, or one number
# run on into the next field.
ODD_FIELDS = ["", " ", "1 2", " 3", "\x0c1", "1-", "3-4", "-", "+", "--1", "1.2.3",
              "1e", "e5", "1.", ".5", "2e+1", "07", "0", "1", "-1", "12"]


def outcome(read, *args):
    """What a reader returns as plain lists, or its exception and message."""
    try:
        got = read(*args)
    except (ParseError, DataError) as exc:
        return type(exc), str(exc)
    if isinstance(got, tuple):
        edges, n, id_map = got
        return edge_rows(edges), n, list(id_map.items())
    return edge_rows(got)


@pytest.mark.parametrize("fmt, layout", [
    ("csv-rating", "7,12,3,{}\n8,9,4,{}\n"),
    ("csv-rating", "7,{},3,{}\n"),
    ("tsv-sign", "1\t2\t{}\n3\t{}\t1\n"),
    ("dense", "1\t2\t{}\n3\t{}\t1\n"),
])
def test_readers_match_reference_on_odd_fields(tmp_path, fmt, layout):
    path = tmp_path / "e.txt"
    for first in ODD_FIELDS:
        for second in ODD_FIELDS:
            path.write_text(layout.format(first, second))
            if fmt == "dense":
                assert outcome(read_edge_tsv, path) == outcome(reference_read_edge_tsv, path)
            else:
                assert outcome(load_edge_list, path, fmt) == outcome(reference_load_edge_list, path, fmt)


@pytest.mark.parametrize("fmt, text", [
    ("tsv-sign", "1\t2\t1\n3\t4\t1\n1\t2\t-1\n"),
    ("tsv-sign", " 1\t2\t1\n3\t4\t1\n1\t2\t-1\n"),  # read line by line
    ("csv-rating", "1,2,3,0\n3,4,1,0\n1,2,-3,0\n"),
])
def test_load_duplicate_keeps_first_position_and_last_sign(tmp_path, fmt, text):
    path = tmp_path / "e.txt"
    path.write_text(text)
    edges, _, _ = load_edge_list(path, fmt)
    assert edge_rows(edges) == [SignedEdge(0, 1, -1), SignedEdge(2, 3, 1)]


@pytest.mark.parametrize("fmt, text, message", [
    ("tsv-sign", "# a\n# b\n\n1\t2\t1\n3\t4\n", "line 5: expected 3 tab-separated fields"),
    ("tsv-sign", "# a\n1\t2\t1\n\n1\t2\tx\n", "line 4: sign 'x' is not an integer"),
    ("tsv-sign", "#\n1\t2\t3\n", "line 2: sign must be 1 or -1, got 3"),
    ("tsv-sign", "# a\n1\t2\t1\t3\n4\t-1\n", "line 2: expected 3 tab-separated fields, got 4"),
    ("tsv-sign", "# a\n1\t2\t1\n1\t\t\t1\n", "line 3: expected 3 tab-separated fields, got 4"),
    ("csv-rating", "# a\n\n1,2,3\n1,2\n", "line 4: expected SOURCE,TARGET,RATING[,TIME]"),
    ("csv-rating", "# a\n1,2,3,4\n2,1,bad,4\n", "line 3: rating 'bad' is not numeric"),
    ("csv-rating", "# a\n1,2,3,4\n2,1,-0,4\n", "line 3: zero rating carries no sign"),
    ("csv-rating", "1,2,3,4\n2,1,nan(1),4\n", "line 2: rating 'nan(1)' is not numeric"),
    ("csv-rating", "1,2,5\n2,3,nan\n3,1,-2\n", "line 2: rating 'nan' is not a finite number"),
    ("csv-rating", "1,2,5\n2,3,-inf\n", "line 2: rating '-inf' is not a finite number"),
    # The whole-file parse reads 1e999 as inf and leaves the line to the
    # per-line reader.
    ("csv-rating", "1,2,5,0\n2,3,1e999,0\n", "line 2: rating '1e999' is not a finite number"),
])
def test_load_bad_line_after_comments_names_it(tmp_path, fmt, text, message):
    path = tmp_path / "e.txt"
    path.write_text(text)
    with pytest.raises(DataError) as got:
        load_edge_list(path, fmt)
    with pytest.raises(DataError) as want:
        reference_load_edge_list(path, fmt)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith(message)


def test_overflowing_rating_is_read_whole_then_named_by_line(tmp_path):
    path = tmp_path / "e.csv"
    path.write_text("1,2,5,0\n2,3,1e999,0\n")
    table = sgdnet.graph._read_table(path, ",", None, np.float64)
    assert table[1, 2] == np.inf
    with pytest.raises(ParseError, match="line 2: rating '1e999' is not a finite number"):
        load_edge_list(path, "csv-rating")


@pytest.mark.parametrize("text", [
    "# c\n0\t1\t1\n0\tx\t1\n",
    "0\t1\t1\n\n# c\n-1\t1\t1\n",
    "# c\n0\t1\t1\n0\t1\t2\n",
    "0\t1\t1\n0\t1\n",
])
def test_read_edge_tsv_bad_line_matches_reference(tmp_path, text):
    path = tmp_path / "e.tsv"
    path.write_text(text)
    with pytest.raises(ParseError) as got:
        read_edge_tsv(path)
    with pytest.raises(ParseError) as want:
        reference_read_edge_tsv(path)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("text", [
    "0\t1\t1\n2\t0\t-1\n0\t1\t1\n",
    "# c\r\n\r\n0\t1\t1\r\n",
    " 007\t1\t+1\n",
    "5\t1\t1",
])
def test_read_edge_tsv_matches_reference(tmp_path, text):
    path = tmp_path / "e.tsv"
    path.write_text(text)
    assert edge_rows(read_edge_tsv(path)) == reference_read_edge_tsv(path)


def test_read_edge_tsv_rejects_ids_beyond_int64(tmp_path):
    path = tmp_path / "e.tsv"
    path.write_text("0\t1\t1\n99999999999999999999\t1\t1\n")
    with pytest.raises(ParseError, match="line 2"):
        read_edge_tsv(path)


# ---------------------------------------------------------------- edge columns


def test_edge_list_holds_signed_edges_as_columns():
    edges = as_edge_list([SignedEdge(0, 1, 1), (2, 0, -1), SignedEdge(1, 2, 1)])
    assert len(edges) == 3
    rows = edge_rows(edges)
    assert rows[1] == SignedEdge(2, 0, -1) and type(rows[1]) is SignedEdge
    assert rows == [(0, 1, 1), (2, 0, -1), (1, 2, 1)]
    assert edge_rows(edges[np.array([2, 0])]) == [(1, 2, 1), (0, 1, 1)]
    assert edge_rows(edges[1:]) == edge_rows(EdgeList([2, 1], [0, 2], [-1, 1]))
    assert as_edge_list(edges) is edges
    with pytest.raises(TypeError, match="not iterable"):
        iter(edges)
    assert len(as_edge_list([])) == 0
    with pytest.raises(ValueError):
        edges.src[0] = 5


def test_selected_edges_are_frozen_and_copied_once():
    m = 100_000
    edges = EdgeList(np.arange(m), np.arange(m)[::-1], np.ones(m, dtype=np.int64))
    order = np.random.default_rng(0).permutation(m)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        picked = edges[order]
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    sliced = edges[10:]
    assert edge_rows(picked[:2]) == [(order[0], m - 1 - order[0], 1), (order[1], m - 1 - order[1], 1)]
    assert edge_rows(sliced[:1]) == [(10, m - 11, 1)]
    # The three selected columns; a second copy of them would make six.
    assert peak < 3.5 * m * 8
    for col in (picked.src, picked.dst, picked.sign, sliced.src):
        assert not col.flags.writeable and col.flags.owndata


def test_graph_edges_keep_input_order_and_repeats():
    edges = [SignedEdge(2, 0, -1), SignedEdge(0, 1, 1), SignedEdge(2, 0, -1)]
    g = build_graph(edges, 3)
    assert edge_rows(g.edges) == edges
    assert g.m == 3 and np.count_nonzero(g.a.data < 0) == 1


# ---------------------------------------------------------------- building


def test_build_graph_single_edge_degrees():
    g = build_graph([SignedEdge(0, 1, 1)], 2)
    assert g.out_degree.tolist() == [1, 0]
    assert g.a[0, 1] == 1.0
    assert np.count_nonzero(g.a.data < 0) == 0


def test_build_graph_counts_both_signs():
    g = build_graph([SignedEdge(0, 1, 1), SignedEdge(0, 2, -1)], 3)
    assert g.out_degree.tolist() == [2, 0, 0]
    assert g.counts() == (1, 1)


def test_build_graph_rejects_out_of_range():
    with pytest.raises(ValueError):
        build_graph([SignedEdge(0, 5, 1)], 2)


@pytest.mark.parametrize("edges, message", [
    ([SignedEdge(0, 1, 1), SignedEdge(0, 5, 2)], r"edge \(0->5\) out of range for n=2"),
    ([SignedEdge(0, 1, 1), SignedEdge(-1, 0, 1)], r"edge \(-1->0\) out of range"),
    ([SignedEdge(0, 1, 1), SignedEdge(1, 0, 2), SignedEdge(0, 9, 1)], r"edge \(1->0\) has invalid sign 2"),
    ([SignedEdge(1, 0, 0)], "invalid sign 0"),
    (EdgeList([0, 1, 0], [1, 0, 9], [1, 2, 1]), exactly("edge (1->0) has invalid sign 2")),
    (EdgeList([0, 0], [1, 5], [1, 2]), exactly("edge (0->5) out of range for n=2")),
])
def test_build_graph_names_the_first_bad_edge(edges, message):
    with pytest.raises(ValueError, match=message):
        build_graph(edges, 2)


def test_build_graph_rejects_conflicting_signs():
    with pytest.raises(ValueError):
        build_graph([SignedEdge(0, 1, 1), SignedEdge(0, 1, -1)], 2)


def test_build_graph_rejects_a_conflict_apart_in_input_order():
    edges = [SignedEdge(0, 1, 1), SignedEdge(2, 0, -1), SignedEdge(0, 1, 1), SignedEdge(0, 1, -1)]
    with pytest.raises(ValueError, match="an edge carries both signs"):
        build_graph(edges, 3)


def test_signed_adjacency_carries_signs():
    g = build_graph([SignedEdge(0, 1, 1), SignedEdge(1, 0, -1)], 2)
    a = g.a.toarray()
    assert a[0, 1] == 1.0
    assert a[1, 0] == -1.0


def test_same_sign_repeats_collapse_to_one_entry():
    edges = [
        SignedEdge(0, 2, -1), SignedEdge(0, 1, 1), SignedEdge(2, 0, 1),
        SignedEdge(0, 2, -1), SignedEdge(0, 1, 1), SignedEdge(0, 1, 1),
    ]
    g = build_graph(edges, 3)
    assert g.a.toarray().tolist() == [[0, 1, -1], [0, 0, 0], [1, 0, 0]]
    assert g.out_degree.tolist() == [2, 0, 1]
    assert g.m == 6


def test_adjacency_is_canonical_and_read_only():
    g = random_signed_graph(60, avg_out_degree=4.0, seed=1)
    assert g.a.has_canonical_format
    assert g.a.indices.dtype == g.a.indptr.dtype == np.int32
    assert set(g.a.data.tolist()) == {1.0, -1.0}
    for arr in (g.a.data, g.a.indices, g.a.indptr):
        with pytest.raises(ValueError):
            arr[0] = arr[0]


def test_graph_is_immutable():
    g = build_graph([SignedEdge(0, 1, 1)], 2)
    with pytest.raises(ValueError):
        g.a.data[0] = 5.0
    with pytest.raises(ValueError):
        g.out_degree[0] = 3


# ---------------------------------------------------------------- normalize


def test_normalize_degree_two_split():
    g = build_graph([SignedEdge(0, 1, 1), SignedEdge(0, 2, -1)], 3)
    na = normalize(g)
    assert na.na_plus[0, 1] == 0.5
    assert na.na_minus[0, 2] == 0.5


def test_normalize_deadend_rows_zero():
    g = build_graph([SignedEdge(0, 1, 1)], 2)
    na = normalize(g)
    assert na.na_plus[[1], :].nnz == 0
    assert na.na_minus[[1], :].nnz == 0


@pytest.mark.parametrize("seed", range(5))
def test_normalize_row_sums_zero_or_one(seed):
    g = random_signed_graph(60, avg_out_degree=3.0, deadend_fraction=0.2, seed=seed)
    na = normalize(g)
    row_sums = np.asarray(na.na_plus.sum(axis=1)).ravel() + np.asarray(
        na.na_minus.sum(axis=1)
    ).ravel()
    non_deadend = g.out_degree > 0
    assert np.allclose(row_sums[non_deadend], 1.0, atol=1e-12)
    assert np.all(row_sums[~non_deadend] == 0.0)


PER_SIGN_GRAPHS = {
    "random": lambda: random_signed_graph(
        80, avg_out_degree=4.0, neg_fraction=0.4, deadend_fraction=0.2, seed=3
    ),
    "positive_only": lambda: build_graph([SignedEdge(0, 1, 1), SignedEdge(1, 2, 1)], 4),
    "edgeless": lambda: build_graph([], 5),
}


@pytest.mark.parametrize("graph", sorted(PER_SIGN_GRAPHS))
def test_per_sign_views_equal_the_graph_built_matrices(graph):
    g = PER_SIGN_GRAPHS[graph]()
    na = normalize(g)
    assert type(na).__slots__ == ("n", "adj")
    for view, built in zip((na.na_plus, na.na_minus), per_sign_operators(g)):
        assert view.shape == built.shape
        assert view.data.tobytes() == built.data.tobytes()
        assert np.array_equal(view.indices, built.indices)
        assert np.array_equal(view.indptr, built.indptr)


def _with_repeats():
    edges = as_edge_list(random_signed_graph(50, avg_out_degree=3.0, seed=4).edges)
    again = np.random.default_rng(0).integers(0, len(edges), size=40)
    return build_graph(edges[np.concatenate([np.arange(len(edges)), again])], 50)


@pytest.mark.parametrize("graph", sorted(PER_SIGN_GRAPHS) + ["repeats"])
def test_adjacency_equals_the_per_sign_difference(graph):
    g = _with_repeats() if graph == "repeats" else PER_SIGN_GRAPHS[graph]()
    a_plus, a_minus = per_sign_adjacency(g)
    built = a_plus - a_minus
    assert g.a.data.tobytes() == built.data.tobytes()
    assert np.array_equal(g.a.indices, built.indices)
    assert np.array_equal(g.a.indptr, built.indptr)
    assert np.array_equal(g.out_degree, np.diff(a_plus.indptr) + np.diff(a_minus.indptr))


def test_normalize_shares_the_graphs_index_pair():
    g = random_signed_graph(50, seed=2)
    for op in normalize(g).adj:
        assert np.shares_memory(op.indices, g.a.indices)
        assert np.shares_memory(op.indptr, g.a.indptr)


def test_normalize_is_kept_on_the_graph():
    g = random_signed_graph(50, seed=0)
    na = normalize(g)
    assert normalize(g) is na
    assert normalize(random_signed_graph(50, seed=0)) is not na


# ---------------------------------------------------------------- column sums


def test_column_sums_single_edge_matches_dense_oracle():
    g = build_graph([SignedEdge(0, 1, 1)], 2)
    na = normalize(g)
    got = column_sums_of_b(na)
    oracle = dense_block_operator(g).sum(axis=0)
    assert np.allclose(got, oracle)
    assert got.tolist() == [1.0, 0.0, 1.0, 0.0]


def test_column_sums_no_deadends_all_one():
    edges = [SignedEdge(0, 1, 1), SignedEdge(1, 2, -1), SignedEdge(2, 0, 1)]
    na = normalize(build_graph(edges, 3))
    assert np.allclose(column_sums_of_b(na), 1.0, atol=1e-12)


def test_column_sums_empty_graph_all_zero():
    na = normalize(build_graph([], 4))
    assert np.all(column_sums_of_b(na) == 0.0)


@pytest.mark.parametrize("seed", range(10))
def test_column_sums_never_exceed_one(seed):
    g = random_signed_graph(80, avg_out_degree=5.0, deadend_fraction=0.15, seed=seed)
    na = normalize(g)
    sums = column_sums_of_b(na)
    assert sums.max() <= 1.0 + 1e-12
    oracle = dense_block_operator(g).sum(axis=0)
    assert np.allclose(sums, oracle, atol=1e-12)


# ---------------------------------------------------------------- datasets


@pytest.mark.skipif(bitcoin_alpha_path() is None, reason="Bitcoin-Alpha dataset not present")
def test_bitcoin_alpha_counts():
    edges, n, _ = load_edge_list(bitcoin_alpha_path(), "csv-rating")
    g = build_graph(edges, n)
    n_pos, n_neg = g.counts()
    assert n == 3783
    assert g.m == 24186
    assert n_pos == 22650


@pytest.mark.skipif(bitcoin_otc_path() is None, reason="Bitcoin-OTC dataset not present")
def test_bitcoin_otc_counts():
    edges, n, _ = load_edge_list(bitcoin_otc_path(), "csv-rating")
    g = build_graph(edges, n)
    _, n_neg = g.counts()
    assert g.m == 35592
    assert n_neg == 3563
