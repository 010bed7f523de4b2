"""Signed directed graphs and their sign-split normalized adjacency operators.

Edges carry a +1 (trust) or -1 (distrust) label. The graph is stored as one
CSR adjacency matrix per sign, and `normalize` turns those into the
out-degree-normalized operators that drive the random-walk diffusion.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .atomic import atomic_write


class DataError(ValueError):
    """Unreadable, empty, or semantically invalid edge data."""


class ParseError(DataError):
    """A line in an edge file could not be parsed."""


class SignedEdge(NamedTuple):
    src: int
    dst: int
    sign: int  # +1 or -1


class SignedDigraph:
    """Immutable signed directed graph.

    Attributes:
        n: node count.
        edges: tuple of SignedEdge, deduplicated on (src, dst).
        a_plus, a_minus: per-sign CSR adjacency with 0/1 entries.
        out_degree: per-node outgoing edge count over both signs.
    """

    __slots__ = ("n", "edges", "a_plus", "a_minus", "out_degree")

    def __init__(self, n, edges, a_plus, a_minus, out_degree):
        self.n = n
        self.edges = edges
        self.a_plus = a_plus
        self.a_minus = a_minus
        self.out_degree = out_degree
        for mat in (a_plus, a_minus):
            mat.data.setflags(write=False)
            mat.indices.setflags(write=False)
            mat.indptr.setflags(write=False)
        out_degree.setflags(write=False)

    @property
    def m(self) -> int:
        return len(self.edges)

    def counts(self) -> tuple[int, int]:
        """Return (positive edge count, negative edge count)."""
        n_pos = sum(1 for e in self.edges if e.sign > 0)
        return n_pos, len(self.edges) - n_pos


class NormalizedAdjacency:
    """Out-degree-normalized per-sign adjacency, materialized transposes, and
    the fused sum/difference operators.

    Every row u of [na_plus | na_minus] sums to 1 when u has outgoing edges
    and is all-zero when u is a deadend.

    With S = na_plus + na_minus and D = na_plus - na_minus (one sparsity
    pattern, since the signs are disjoint), `fwd` is the pair (S^T, D^T) and
    `adj` is the pair (S, D): one diffusion step, or one adjoint step, of the
    sum or the difference channel is a single sparse product with its half.
    """

    __slots__ = ("n", "na_plus", "na_minus", "na_plus_t", "na_minus_t", "fwd", "adj")

    def __init__(self, n, na_plus, na_minus, na_plus_t, na_minus_t):
        self.n = n
        self.na_plus = na_plus
        self.na_minus = na_minus
        self.na_plus_t = na_plus_t
        self.na_minus_t = na_minus_t
        self.fwd = (na_plus_t + na_minus_t, na_plus_t - na_minus_t)
        self.adj = (na_plus + na_minus, na_plus - na_minus)


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
    if rating == 0:
        raise DataError(f"line {lineno}: zero rating carries no sign")
    return src, dst, (1 if rating > 0 else -1)


_PARSERS = {"tsv-sign": _parse_tsv_sign, "csv-rating": _parse_csv_rating}


def load_edge_list(path, fmt: str = "tsv-sign"):
    """Parse a signed edge file.

    Raw node ids are remapped to a dense 0..n-1 range by first appearance.
    Duplicate (src, dst) pairs keep the last occurrence. `#`-prefixed lines
    and blank lines are skipped.

    Returns:
        (edges, n, id_map) where id_map maps raw id string -> dense id.
    """
    if fmt not in _PARSERS:
        raise ValueError(f"unknown edge format {fmt!r}; expected one of {sorted(_PARSERS)}")
    parse = _PARSERS[fmt]

    id_map: dict[str, int] = {}
    signs: dict[tuple[int, int], int] = {}

    def dense(raw: str) -> int:
        if raw not in id_map:
            id_map[raw] = len(id_map)
        return id_map[raw]

    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw_line in enumerate(fh, start=1):
            line = raw_line.strip()
            if not line or line.startswith("#"):
                continue
            src_raw, dst_raw, sign = parse(line, lineno)
            signs[(dense(src_raw), dense(dst_raw))] = sign

    if not signs:
        raise DataError(f"{path}: no edges found")

    edges = [SignedEdge(u, v, s) for (u, v), s in signs.items()]
    return edges, len(id_map), id_map


def save_id_map(path, id_map) -> None:
    with atomic_write(path) as fh:
        for raw, dense in id_map.items():
            fh.write(f"{raw}\t{dense}\n")


def load_id_map(path) -> dict[str, int]:
    id_map = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            raw, dense = line.split("\t")
            id_map[raw] = int(dense)
    return id_map


def save_edge_list(path, edges) -> None:
    """Write edges as dense-id TSV (src, dst, sign), loadable as tsv-sign."""
    with atomic_write(path) as fh:
        for e in edges:
            fh.write(f"{e.src}\t{e.dst}\t{e.sign}\n")


def read_edge_tsv(path) -> list[SignedEdge]:
    """Read a dense-id TSV edge file without remapping the ids."""
    edges = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw_line in enumerate(fh, start=1):
            line = raw_line.strip()
            if not line or line.startswith("#"):
                continue
            src_raw, dst_raw, sign = _parse_tsv_sign(line, lineno)
            try:
                src, dst = int(src_raw), int(dst_raw)
            except ValueError:
                raise ParseError(f"line {lineno}: dense ids must be integers") from None
            if src < 0 or dst < 0:
                raise ParseError(f"line {lineno}: dense ids must be non-negative")
            edges.append(SignedEdge(src, dst, sign))
    if not edges:
        raise DataError(f"{path}: no edges found")
    return edges


def build_graph(edges, n: int) -> SignedDigraph:
    """Assemble the per-sign CSR adjacency and out-degrees.

    Entries are 0/1; duplicate edges collapse to a single entry. The positive
    and negative adjacencies must be disjoint.
    """
    edges = tuple(SignedEdge(*e) for e in edges)
    for e in edges:
        if not (0 <= e.src < n and 0 <= e.dst < n):
            raise ValueError(f"edge ({e.src}->{e.dst}) out of range for n={n}")
        if e.sign not in (1, -1):
            raise ValueError(f"edge ({e.src}->{e.dst}) has invalid sign {e.sign}")

    def csr_for(sign):
        rows = np.array([e.src for e in edges if e.sign == sign], dtype=np.int64)
        cols = np.array([e.dst for e in edges if e.sign == sign], dtype=np.int64)
        mat = sp.csr_array(
            (np.ones(len(rows)), (rows, cols)), shape=(n, n), dtype=np.float64
        )
        mat.sum_duplicates()
        mat.data[:] = 1.0
        mat.sort_indices()
        return mat

    a_plus = csr_for(1)
    a_minus = csr_for(-1)
    if a_plus.multiply(a_minus).nnz > 0:
        raise ValueError("an edge carries both signs; deduplicate the edge list first")

    out_degree = np.diff(a_plus.indptr) + np.diff(a_minus.indptr)
    return SignedDigraph(n, edges, a_plus, a_minus, out_degree.astype(np.int64))


def normalize(g: SignedDigraph) -> NormalizedAdjacency:
    """Divide each adjacency row by the node's total out-degree.

    Deadend rows stay all-zero; no teleport or renormalization is applied.
    """
    deg = g.out_degree.astype(np.float64)

    def scaled(a):
        rows = np.repeat(np.arange(g.n), np.diff(a.indptr))
        data = a.data / deg[rows]
        mat = sp.csr_array((data, a.indices.copy(), a.indptr.copy()), shape=(g.n, g.n))
        mat.sort_indices()
        return mat

    na_plus = scaled(g.a_plus)
    na_minus = scaled(g.a_minus)
    na_plus_t = sp.csr_array(na_plus.T)
    na_minus_t = sp.csr_array(na_minus.T)
    na_plus_t.sort_indices()
    na_minus_t.sort_indices()
    return NormalizedAdjacency(g.n, na_plus, na_minus, na_plus_t, na_minus_t)


def column_sums_of_b(na: NormalizedAdjacency) -> np.ndarray:
    """Column sums of the 2n x 2n block diffusion operator, without forming it.

    The operator stacks the transposed per-sign matrices, so its column sums
    are the row sums of (na_plus + na_minus) repeated twice: 1 for nodes with
    outgoing edges, 0 for deadends. The property suite uses this to certify
    that the operator's maximum column sum never exceeds 1.
    """
    b = np.asarray(na.na_plus.sum(axis=1)).ravel() + np.asarray(
        na.na_minus.sum(axis=1)
    ).ravel()
    return np.concatenate([b, b])
