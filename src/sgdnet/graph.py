"""Signed directed graphs and their normalized adjacency operators.

Edges carry a +1 (trust) or -1 (distrust) label and travel from parse to
save as an `EdgeList`. Edge files are parsed whole with numpy; a file that
this parse does not accept is read line by line, which names the first bad
line. Each stage of the parse frees its temporaries before it allocates
what it returns: glibc's heap shrinks only from its top, so an output
allocated above freed temporaries would keep their pages resident.
"""

from __future__ import annotations

import re
import warnings
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .atomic import atomic_write, write_lines


class DataError(ValueError):
    """Unreadable, empty, or semantically invalid edge data."""


class ParseError(DataError):
    """A line in an edge file could not be parsed."""


class SignedEdge(NamedTuple):
    src: int
    dst: int
    sign: int  # +1 or -1


class EdgeList:
    """Signed edges as three read-only int64 columns: `src`, `dst`, `sign`.

    `len` counts the edges, and a slice or an index array selects an
    EdgeList. The edges are read as columns; there is no per-edge access.
    """

    __slots__ = ("src", "dst", "sign")

    def __init__(self, src, dst, sign):
        self._freeze(*(np.array(c, dtype=np.int64) for c in (src, dst, sign)))

    @classmethod
    def _own(cls, src, dst, sign):
        """An EdgeList over three int64 columns that nothing else holds,
        frozen in place instead of copied."""
        edges = cls.__new__(cls)
        edges._freeze(src, dst, sign)
        return edges

    def _freeze(self, *cols):
        if any(c.shape != cols[0].shape or c.ndim != 1 for c in cols):
            raise ValueError("edge columns must be 1-d and of one length")
        for c in cols:
            c.setflags(write=False)
        self.src, self.dst, self.sign = cols

    def __len__(self) -> int:
        return len(self.src)

    # iter() raises TypeError, instead of falling back to `__getitem__`
    # with integer indices.
    __iter__ = None

    def __getitem__(self, index):
        cols = [c[index] for c in (self.src, self.dst, self.sign)]
        # An index array selects copies, which become the columns; a slice
        # selects views, which are copied.
        if any(c.base is not None for c in cols):
            return EdgeList(*cols)
        return EdgeList._own(*cols)


def as_edge_list(edges) -> EdgeList:
    """An EdgeList as is; any other iterable of (src, dst, sign) triples,
    such as SignedEdge values, as columns."""
    if isinstance(edges, EdgeList):
        return edges
    rows = np.array(list(edges), dtype=np.int64).reshape(-1, 3)
    return EdgeList(rows[:, 0], rows[:, 1], rows[:, 2])


class SignedDigraph:
    """Immutable signed directed graph.

    Attributes:
        n: node count.
        edges: EdgeList in input order; a repeated edge stays repeated here
            and collapses to one entry in the adjacency.
        a: the signed adjacency A = A+ - A- as canonical CSR (sorted
            indices, no duplicates) with +1/-1 entries, on int32 indices
            (int64 only past 2^31 - 1).
        out_degree: per-node count of distinct out-neighbours over both
            signs, so also the entry count of each row of `a`.
    """

    __slots__ = ("n", "edges", "a", "out_degree", "_normalized")

    def __init__(self, n, edges, a, out_degree):
        self.n = n
        self.edges = edges
        self.a = a
        self.out_degree = out_degree
        self._normalized = None  # set by the first `normalize(self)`
        for arr in (a.data, a.indices, a.indptr, out_degree):
            arr.setflags(write=False)

    @property
    def m(self) -> int:
        return len(self.edges)

    def counts(self) -> tuple[int, int]:
        """Return (positive edge count, negative edge count)."""
        n_pos = int(np.count_nonzero(self.edges.sign > 0))
        return n_pos, len(self.edges) - n_pos


class NormalizedAdjacency:
    """The out-degree-normalized adjacency, stored once as the pair `adj`.

    With NA+ and NA- the per-sign adjacency divided row-wise by the total
    out-degree, `adj` = (S, D), S = NA+ + NA- and D = NA+ - NA- =
    diag(1/deg) A. Each row of S sums to 1, or to 0 at a deadend. The signs
    are disjoint, so S = |D| entrywise, and both are CSR matrices on the
    `indices`/`indptr` pair of `SignedDigraph.a`.

    `na_plus` and `na_minus` rebuild NA+ and NA- exactly on each read, for
    the benchmark's flop count; the package never reads them. S + D doubles
    one sign and cancels the other, whose zeros are dropped, so halving it
    gives NA+'s values, indices and indptr (S - D: NA-'s).
    """

    __slots__ = ("n", "adj")

    def __init__(self, n, d):
        self.n = n
        self.adj = tuple(
            sp.csr_array((data, d.indices, d.indptr), shape=d.shape)
            for data in (np.abs(d.data), d.data)
        )

    na_plus = property(lambda self: (self.adj[0] + self.adj[1]) * 0.5)
    na_minus = property(lambda self: (self.adj[0] - self.adj[1]) * 0.5)


def _parse_tsv_sign(line: str, lineno: int) -> tuple[str, str, int]:
    parts = line.split("\t")
    if len(parts) != 3:
        raise ParseError(f"line {lineno}: expected 3 tab-separated fields, got {len(parts)}")
    src, dst, sign_str = (p.strip() for p in parts)
    try:
        sign = int(sign_str)
    except ValueError:
        raise ParseError(f"line {lineno}: sign {sign_str!r} is not an integer") from None
    if sign not in (1, -1):
        raise ParseError(f"line {lineno}: sign must be 1 or -1, got {sign}")
    return src, dst, sign


def _parse_csv_rating(line: str, lineno: int) -> tuple[str, str, int]:
    parts = line.split(",")
    if len(parts) < 3:
        raise ParseError(f"line {lineno}: expected SOURCE,TARGET,RATING[,TIME], got {len(parts)} fields")
    src, dst, rating_str = (p.strip() for p in parts[:3])
    try:
        rating = float(rating_str)
    except ValueError:
        raise ParseError(f"line {lineno}: rating {rating_str!r} is not numeric") from None
    if not np.isfinite(rating):
        raise ParseError(f"line {lineno}: rating {rating_str!r} is not a finite number")
    if rating == 0:
        raise DataError(f"line {lineno}: zero rating carries no sign")
    return src, dst, (1 if rating > 0 else -1)


def _is_sign(column) -> bool:
    return bool(np.all((column == 1) | (column == -1)))


def _tsv_signs(column):
    # A copy, so that the table can be freed.
    return column.copy() if _is_sign(column) else None


def _rating_signs(column):
    if not np.all(np.isfinite(column) & (column != 0)):
        return None  # the per-line reader names the line
    return np.where(column > 0, 1, -1)


# Per format: the per-line parser, and for `_read_table` the field separator,
# the field count (None: that of the first line), the value type, and the
# map from the third column to signs (None where a line needs the parser).
_FORMATS = {
    "tsv-sign": (_parse_tsv_sign, "\t", 3, np.int64, _tsv_signs),
    "csv-rating": (_parse_csv_rating, ",", None, np.float64, _rating_signs),
}

# The widest id `_read_table` takes: every integer of 15 digits is exact in
# float64, and none overflows int64.
_MAX_ID_DIGITS = 15
_INT64_MAX = np.iinfo(np.int64).max
# errors="surrogateescape" reads each byte that is not valid UTF-8 as one of
# these lone surrogates, which no valid UTF-8 text holds.
_UNDECODABLE = re.compile("[\udc80-\udcff]")
# The bytes other than digits that a field after the ids may hold.
_NUMBER_MARKS = np.frombuffer(b"+-.eE", dtype=np.uint8)


def _read_table(path, sep: str, width, dtype):
    """Parse a whole edge file with numpy into a (lines, width) array of
    `dtype`, or return None for the per-line reader to decide.

    Lines that are empty or begin with `#` are skipped. Each other line must
    hold `width` fields (None: as many as the first line, at least 3) split
    by `sep`. The two ids must be decimal digits with no leading zero, and
    the other fields may hold only digits and `+-.eE`.
    """
    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape") as fh:
        text = fh.read()
    if not text.isascii():
        return None
    buf = np.frombuffer((text + "\n").encode("ascii"), dtype=np.uint8)
    del text
    ends = np.flatnonzero(buf == ord("\n"))
    starts = np.r_[0, ends[:-1] + 1]
    skip = (starts == ends) | (buf[starts] == ord("#"))
    if skip.any():
        buf = buf[np.repeat(~skip, ends - starts + 1)]
    n_lines = len(ends) - int(np.count_nonzero(skip))
    del ends, starts, skip
    if not n_lines:
        return None

    is_nl = buf == ord("\n")
    is_cut = is_nl | (buf == ord(sep))
    cuts = np.flatnonzero(is_cut)
    if width is None:
        width = int(np.argmax(is_nl[cuts])) + 1
        if width < 3:
            return None
    if len(cuts) != n_lines * width or not is_nl[cuts[width - 1 :: width]].all():
        return None
    sizes = np.diff(cuts, prepend=-1) - 1
    # Every field must be read as exactly one number, so that no value lands
    # in another field's column. A field with no whitespace in it gives at
    # most one, and the count check below then leaves no field without one;
    # an empty field, which gives none, is turned away here as well. Ids
    # must be digits without a leading zero, so that each value stands for
    # one raw id string; the other fields must be plain decimal numbers,
    # which numpy and Python read alike.
    if sizes.min() == 0:
        return None
    id_sizes = sizes.reshape(-1, width)[:, :2]
    id_heads = buf[(cuts - sizes).reshape(-1, width)[:, :2]]
    non_digits = np.flatnonzero(((buf < ord("0")) | (buf > ord("9"))) & ~is_cut)
    if (
        id_sizes.max() > _MAX_ID_DIGITS
        or np.any((id_heads == ord("0")) & (id_sizes > 1))
        or np.any(np.searchsorted(cuts, non_digits) % width < 2)
        or not np.isin(buf[non_digits], _NUMBER_MARKS).all()
    ):
        return None

    data = buf.tobytes()
    if sep != "\t":
        data = data.replace(sep.encode(), b" ")
    with warnings.catch_warnings():
        # numpy before 2.3 warns, rather than raises, on a token it cannot
        # parse, and returns the values before it.
        warnings.simplefilter("error", DeprecationWarning)
        try:
            values = np.fromstring(data, dtype=dtype, sep=" ")
        except (ValueError, DeprecationWarning):
            return None
    if values.size != cuts.size:
        return None
    return values.reshape(-1, width)


def _data_lines(path):
    """(line number, stripped line) of every line that is neither blank nor
    a `#` comment. A line that is not valid UTF-8 raises ParseError."""
    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape") as fh:
        for lineno, raw_line in enumerate(fh, start=1):
            if not raw_line.isascii() and _UNDECODABLE.search(raw_line):
                raise ParseError(f"line {lineno}: not valid UTF-8")
            line = raw_line.strip()
            if line and not line.startswith("#"):
                yield lineno, line


def _first_ids(keys, inverse):
    """Dense ids by first appearance in row-major order, as (src, dst), and
    the id map, from the sorted distinct raw ids `keys` and the (m, 2)
    index `inverse` of each raw id among them."""
    first = np.full(len(keys), inverse.size)
    np.minimum.at(first, inverse.ravel(), np.arange(inverse.size))
    order = np.argsort(first)
    del first
    id_map = dict(zip(map(str, keys[order].astype(np.int64).tolist()), range(len(keys))))
    dense = np.empty(len(keys), dtype=np.int64)
    dense[order] = np.arange(len(keys))
    del order
    ids = dense[inverse.reshape(-1, 2).T]
    return ids[0], ids[1], id_map


def _collapse_repeats(src, dst, sign, n: int) -> EdgeList:
    """Keep one edge per (src, dst): at the position of its first occurrence,
    with the sign of its last."""
    key = src * n + dst
    # A stable sort keeps each key's occurrences in file order.
    perm = np.argsort(key, kind="stable")
    sorted_key = key[perm]
    del key
    head = np.r_[True, sorted_key[1:] != sorted_key[:-1]]
    del sorted_key
    first = perm[head]
    last = perm[np.r_[head[1:], True]]
    del perm, head
    order = np.argsort(first)
    keep, last = first[order], last[order]
    del first, order
    return EdgeList._own(src[keep], dst[keep], sign[last])


def load_edge_list(path, fmt: str = "tsv-sign"):
    """Parse a signed edge file into (edges, n, id_map): an EdgeList, the
    node count, and the map from raw id string to dense id.

    Raw ids get dense ids 0..n-1 by first appearance; they are compared as
    strings, so "007" and "7" are two nodes. A repeated (src, dst) pair
    keeps the position of its first occurrence and the sign of its last.
    `#` lines, blank lines and a leading UTF-8 BOM are skipped.
    """
    if fmt not in _FORMATS:
        raise ValueError(f"unknown edge format {fmt!r}; expected one of {sorted(_FORMATS)}")
    parse, sep, width, dtype, to_signs = _FORMATS[fmt]

    table = _read_table(path, sep, width, dtype)
    signs = None if table is None else to_signs(table[:, 2])
    if signs is not None:
        # `_read_table` takes ids of at most 15 digits, which float64 holds
        # exactly, so a float table's ids sort as their integers do.
        keys, inverse = np.unique(table[:, :2], return_inverse=True)
        del table
        src, dst, id_map = _first_ids(keys, inverse)
        del keys, inverse
    else:
        id_map = {}
        rows = []
        for lineno, line in _data_lines(path):
            src_raw, dst_raw, sign = parse(line, lineno)
            src = id_map.setdefault(src_raw, len(id_map))
            dst = id_map.setdefault(dst_raw, len(id_map))
            rows.append((src, dst, sign))
        src, dst, signs = np.array(rows, dtype=np.int64).reshape(-1, 3).T
        del rows

    if not len(src):
        raise DataError(f"{path}: no edges found")
    return _collapse_repeats(src, dst, signs, len(id_map)), len(id_map), id_map


def save_id_map(path, id_map) -> None:
    write_lines(path, (f"{raw}\t{dense}" for raw, dense in id_map.items()))


def load_id_map(path) -> dict[str, int]:
    """Read a `save_id_map` file; a raw id may be empty or hold a tab. A
    leading UTF-8 BOM is skipped."""
    id_map = {}
    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            if _UNDECODABLE.search(line):
                raise DataError(f"{path}: line {lineno}: not valid UTF-8")
            try:
                raw, dense = line.rsplit("\t", 1)
                id_map[raw] = int(dense)
            except ValueError:
                raise DataError(f"{path}: line {lineno}: expected RAW_ID<tab>DENSE_ID") from None
    return id_map


# `save_edge_list` formats and writes this many rows at a time; the block
# caps the tuple of Python ints that one `%` takes.
_ROW_BLOCK = 1 << 14


def save_edge_list(path, edges) -> None:
    """Write edges as dense-id TSV (src, dst, sign), loadable as tsv-sign.
    Written as bytes, so the newline is the same on every platform."""
    edges = as_edge_list(edges)
    cols = (edges.src, edges.dst, edges.sign)
    with atomic_write(path, binary=True) as fh:
        for start in range(0, len(edges), _ROW_BLOCK):
            block = np.column_stack([c[start : start + _ROW_BLOCK] for c in cols])
            fh.write(("%d\t%d\t%d\n" * len(block) % tuple(block.ravel().tolist())).encode())


def read_edge_tsv(path) -> EdgeList:
    """Read a dense-id TSV edge file without remapping the ids."""
    table = _read_table(path, "\t", 3, np.int64)
    if table is None or not _is_sign(table[:, 2]):
        rows = []
        for lineno, line in _data_lines(path):
            src_raw, dst_raw, sign = _parse_tsv_sign(line, lineno)
            try:
                src, dst = int(src_raw), int(dst_raw)
            except ValueError:
                raise ParseError(f"line {lineno}: dense ids must be integers") from None
            if src < 0 or dst < 0:
                raise ParseError(f"line {lineno}: dense ids must be non-negative")
            if max(src, dst) > _INT64_MAX:
                raise ParseError(f"line {lineno}: dense ids must fit in 64 bits")
            rows.append((src, dst, sign))
        table = np.array(rows, dtype=np.int64).reshape(-1, 3)
    if not len(table):
        raise DataError(f"{path}: no edges found")
    return EdgeList(table[:, 0], table[:, 1], table[:, 2])


def build_graph(edges, n: int) -> SignedDigraph:
    """Assemble the signed CSR adjacency A = A+ - A- and the out-degrees.

    Entries are +1/-1; duplicate edges collapse to a single entry. An edge
    may not carry both signs.
    """
    edges = as_edge_list(edges)
    in_range = (edges.src >= 0) & (edges.src < n) & (edges.dst >= 0) & (edges.dst < n)
    bad = np.flatnonzero(~in_range | ((edges.sign != 1) & (edges.sign != -1)))
    if bad.size:
        i = bad[0]
        edge = f"edge ({edges.src[i]}->{edges.dst[i]})"
        if not in_range[i]:
            raise ValueError(f"{edge} out of range for n={n}")
        raise ValueError(f"{edge} has invalid sign {edges.sign[i]}")

    # Sorting the row-major keys puts the edges in CSR order, with the copies
    # of one (src, dst) in a run; every run must hold a single sign. Each
    # array is dropped as soon as the next step holds what it needs.
    key = edges.src * n + edges.dst
    order = np.argsort(key)
    key, sign = key[order], edges.sign[order]
    del order
    head = np.diff(key, prepend=-1) != 0
    if np.any(~head & (np.diff(sign, prepend=0) != 0)):
        raise ValueError("an edge carries both signs; deduplicate the edge list first")
    key = key[head]
    sign = sign[head]
    del head

    itype = np.int32 if max(n, len(key)) <= np.iinfo(np.int32).max else np.int64
    # Row r's entries are the keys in [r * n, (r + 1) * n).
    indptr = np.searchsorted(key, np.arange(n + 1) * n).astype(itype)
    cols = (key % n).astype(itype)
    del key
    a = sp.csr_array((sign.astype(np.float64), cols, indptr), shape=(n, n))
    return SignedDigraph(n, edges, a, np.diff(indptr).astype(np.int64))


def normalize(g: SignedDigraph) -> NormalizedAdjacency:
    """Divide each adjacency row by the node's total out-degree; deadend
    rows stay all-zero. The graph is immutable, so the result is kept on it
    and later calls return the same operators."""
    if g._normalized is not None:
        return g._normalized
    a = g.a
    # Each entry over its row's degree, repeated along the row; no array of
    # row indices is formed. The degrees are exact in float64, which spares
    # the division a cast buffer. A row's degree is its entry count, so the
    # stored degrees are also the repeat counts.
    data = a.data / np.repeat(g.out_degree.astype(np.float64), g.out_degree)
    d = sp.csr_array((data, a.indices, a.indptr), shape=a.shape)
    g._normalized = NormalizedAdjacency(g.n, d)
    return g._normalized
