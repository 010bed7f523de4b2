"""Property tests of the invariants the training path rests on, over small
generated signed digraphs: deadends, isolated nodes, self-loops, one-sign
graphs and edgeless graphs; of the binary readers, over mutated feature and
checkpoint files; and of the text readers, over mutated edge files, id maps
and `--config` files.

Hypothesis runs derandomized (a fixed example sequence, no example
database), so a failure reproduces on every run.
"""

import contextlib
import io
import os
import re
import struct
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgdnet.diffusion import (
    DiffusionConfig,
    diffuse,
    diffusion_steps,
    error_bound,
    exact_solve,
    l1_distance,
)
from sgdnet.cli import _read_config_file, main
from sgdnet.features import load_features
from sgdnet.graph import (
    DataError,
    EdgeList,
    build_graph,
    load_edge_list,
    load_id_map,
    normalize,
    read_edge_tsv,
    save_id_map,
)
from sgdnet.model import init_params, load_checkpoint

from helpers import (
    ARTIFACT_DIMS,
    BYTE_MUTATIONS,
    adjoint,
    assert_precompute_matches_direct_path,
    dense_block_operator,
    edge_rows,
    reference_load_edge_list,
    reference_load_id_map,
    reference_read_config_file,
    reference_read_edge_tsv,
    write_mutated_artifact,
)

PROPERTY = settings(derandomize=True, database=None, max_examples=40, deadline=None)


@st.composite
def signed_digraphs(draw, max_n=12):
    """(edges, n) of a signed digraph on at most `max_n` nodes, for
    `build_graph`, so that a falsifying example prints the edges. Some nodes
    may be made deadends (no out-edge) or isolated (no edge at all); the
    signs are mixed, all positive or all negative, and there may be no
    edge."""
    n = draw(st.integers(1, max_n))
    signs = draw(st.sampled_from(("mixed", "positive", "negative", "edgeless")))
    if signs == "edgeless":
        return [], n
    node = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(node, node), min_size=1, max_size=3 * n, unique=True))
    deadends = draw(st.sets(node, max_size=n // 3))
    isolated = draw(st.sets(node, max_size=n // 4))
    pairs = [
        (u, v) for u, v in pairs
        if u not in deadends and u not in isolated and v not in isolated
    ]
    if signs == "mixed":
        sign_of = draw(st.lists(st.sampled_from((1, -1)), min_size=len(pairs),
                                max_size=len(pairs)))
    else:
        sign_of = [1 if signs == "positive" else -1] * len(pairs)
    return [(u, v, s) for (u, v), s in zip(pairs, sign_of)], n


restart_ratios = st.floats(0.05, 0.95)
seeds = st.integers(0, 2**32 - 1)


@PROPERTY
@given(
    graph=signed_digraphs(),
    m0_mode=st.sampled_from(("zero", "uniform")),
    n_layers=st.integers(1, 2),
    d0=st.integers(1, 4),
    d=st.integers(1, 3),
    k=st.integers(1, 6),
    c=restart_ratios,
    seed=seeds,
)
def test_precomputed_first_layer_gives_the_direct_loss_and_gradients(
    graph, m0_mode, n_layers, d0, d, k, c, seed
):
    g = build_graph(*graph)
    na = normalize(g)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((g.n, d0))
    b = int(rng.integers(1, 2 * g.n + 1))
    uv = rng.integers(0, g.n, size=(b, 2))
    batch = EdgeList(uv[:, 0], uv[:, 1], rng.choice(np.array([-1, 1]), size=b))
    params = init_params(d0, d, n_layers, seed=seed)
    cfg = DiffusionConfig(c=c, k_steps=k, m0_mode=m0_mode)
    assert_precompute_matches_direct_path(na, x, params, cfg, batch)


@PROPERTY
@given(graph=signed_digraphs(), d=st.integers(1, 3), k=st.integers(1, 8), c=restart_ratios,
       seed=seeds)
def test_adjoint_dot_product_identity(graph, d, k, c, seed):
    # <T_K(x), (y_p, y_m)> == <x, adjoint(y_p, y_m)> for x -> T_K with zero m0.
    g = build_graph(*graph)
    na = normalize(g)
    rng = np.random.default_rng(seed)
    x, yp, ym = (rng.standard_normal((g.n, d)) for _ in range(3))
    cfg = DiffusionConfig(c=c, k_steps=k, m0_mode="zero")
    p, m = diffuse(na, x, cfg)
    adj = adjoint(na, yp, ym, cfg)
    lhs = float((p * yp).sum() + (m * ym).sum())
    rhs = float((x * adj).sum())
    scale = float(np.abs(p * yp).sum() + np.abs(m * ym).sum() + np.abs(x * adj).sum())
    assert abs(lhs - rhs) <= 1e-12 * max(scale, 1e-300)


@PROPERTY
@given(graph=signed_digraphs(), m0_mode=st.sampled_from(("zero", "uniform")),
       d=st.integers(1, 3), k=st.integers(1, 12), c=restart_ratios, seed=seeds)
def test_iterates_keep_the_contraction_bound(graph, m0_mode, d, k, c, seed):
    g = build_graph(*graph)
    na = normalize(g)
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((g.n, d))
    star = exact_solve(na, h, c)
    cfg = DiffusionConfig(c=c, k_steps=k, m0_mode=m0_mode)
    states = list(diffusion_steps(na, h, cfg, rng=rng))
    t0 = states[0]
    slack = 1e-12 * max(1.0, l1_distance(star, t0))
    for step, state in enumerate(states[1:], start=1):
        assert l1_distance(star, state) <= error_bound(t0, star, c, step) + slack


@PROPERTY
@given(graph=signed_digraphs())
def test_walk_operators_have_column_sums_at_most_one(graph):
    g = build_graph(*graph)
    # The forward walks multiply by S^T and D^T: each column sums in
    # absolute value to 1 at a node with out-edges and to 0 at a deadend.
    # (S and D themselves may not: two out-degree-1 nodes pointing at one
    # node give that node's column of S a sum of 2.)
    has_out = np.zeros(g.n, dtype=bool)
    has_out[g.edges.src] = True
    for op in normalize(g).adj:
        sums = np.abs(op.T.toarray()).sum(axis=0)
        np.testing.assert_allclose(sums, has_out.astype(float), rtol=1e-14, atol=0.0)
    # The same on the per-sign 2n x 2n block operator, built from the edges.
    block_sums = np.abs(dense_block_operator(g)).sum(axis=0)
    assert block_sums.max(initial=0.0) <= 1.0 + 1e-14


# ---------------------------------------------------------------- binary readers


def _header_shapes(artifact, raw):
    """The matrix shapes that a file's header states, read independently of
    the loaders: the feature header is magic, u32 version, u64 n, u64 d; the
    checkpoint header is magic, u32 version, u32 d0, u32 d, u32 layers."""
    if artifact == "features":
        return [struct.unpack_from("<QQ", raw, 8)]
    d0, d, n_layers = struct.unpack_from("<III", raw, 8)
    return [(d0, d)] + [(d, d), (2 * d, d)] * n_layers + [(2 * d, 2)]


@pytest.mark.parametrize("artifact", ["features", "checkpoint"])
@PROPERTY
@given(dims=ARTIFACT_DIMS, seed=seeds, mutation=BYTE_MUTATIONS)
def test_binary_reader_on_a_mutated_file_loads_checked_arrays_or_names_the_file(
    artifact, dims, seed, mutation
):
    # Its memory bound is a row of tests/test_memory.py.
    load = load_features if artifact == "features" else load_checkpoint
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "artifact.bin")
        raw = write_mutated_artifact(path, artifact, dims, seed, mutation)
        try:
            loaded = load(path)
        except ValueError as exc:
            assert path in str(exc)
            return
    if artifact == "features":
        arrays = [loaded]
    else:
        params, cfg = loaded
        arrays = [w for _, w in params.named()]
        assert 0 < cfg.c < 1 and cfg.k_steps >= 1
    assert [w.shape for w in arrays] == _header_shapes(artifact, raw)
    assert all(np.all(np.isfinite(w)) for w in arrays)


# ---------------------------------------------------------------- text readers

BOM = b"\xef\xbb\xbf"

# Raw ids: the decimals that the whole-file parse takes, and others that send
# a file to the per-line reader: leading zeros, more than 15 digits, words,
# non-ASCII words.
DECIMAL_IDS = st.integers(0, 10**6).map(str)
WORDS = st.text(alphabet="az\u00e9\u4e2d\U0001f642", min_size=1, max_size=3)
RAW_IDS = st.one_of(
    DECIMAL_IDS,
    st.integers(0, 10**20).map(str),
    st.integers(0, 99).map(lambda i: f"{i:04d}"),
    WORDS,
    WORDS,
)
RATINGS = st.sampled_from(
    [str(r) for r in range(-10, 11) if r] + ["0.5", "-2.5e0", "+3", "1E1"]
)
# Mutations of a valid file, applied in order. The number mutations put a
# token in place of one field of one line; the others act on the bytes. A
# byte to drop, repeat or swap is taken among the non-ASCII bytes when the
# flag is set and the file has some, so that cut characters are common.
TEXT_MUTATIONS = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(("drop", "repeat", "swap")), st.integers(0, 2**16),
                  st.booleans()),
        st.tuples(
            st.just("number"), st.integers(0, 2**16), st.integers(0, 3),
            st.sampled_from(("nan", "NaN", "inf", "-inf", "1e999", "1e308", "-0",
                             "99999999999999999999", "9223372036854775808")),
        ),
        st.tuples(st.just("line"), st.integers(0, 2**16),
                  st.sampled_from(("", "  ", "#", "# a\tb\tc", "#1,2,3"))),
        st.tuples(st.just("crlf")),
        st.tuples(st.just("bom")),
    ),
    min_size=1,
    max_size=3,
)


@st.composite
def edge_files(draw, fmt):
    """The lines of a valid edge file of `fmt` ("tsv-sign", "csv-rating", or
    "dense-tsv" for `read_edge_tsv`), with repeated edges, and blank and `#`
    lines among them. Half of the files hold only decimal ids."""
    id_lists = st.lists(DECIMAL_IDS, min_size=1, max_size=6)
    if fmt != "dense-tsv":
        id_lists = st.one_of(id_lists, st.lists(RAW_IDS, min_size=1, max_size=6))
    node = st.sampled_from(draw(id_lists))
    if fmt == "csv-rating":
        time = draw(st.sampled_from(("", ",1400000000", ",0.5")))
        row = st.tuples(node, node, RATINGS).map(lambda r: ",".join(r) + time)
    else:
        row = st.tuples(node, node, st.sampled_from(("1", "-1"))).map("\t".join)
    lines = draw(st.lists(row, min_size=1, max_size=10))
    for at, extra in draw(st.lists(st.tuples(st.integers(0, 10), st.sampled_from(("", "# c"))),
                                   max_size=2)):
        lines.insert(at % (len(lines) + 1), extra)
    return lines


def mutate_text_file(lines, sep, mutations) -> bytes:
    """The file's bytes after `mutations`; `sep` splits a line's fields."""
    lines = list(lines)
    for mutation in mutations:
        if mutation[0] == "number" and lines:
            i = mutation[1] % len(lines)
            fields = lines[i].split(sep)
            fields[mutation[2] % len(fields)] = mutation[3]
            lines[i] = sep.join(fields)
        elif mutation[0] == "line":
            lines.insert(mutation[1] % (len(lines) + 1), mutation[2])
    raw = ("\n".join(lines) + "\n").encode("utf-8")
    for kind, *args in mutations:
        at = args[0] % len(raw) if args and raw else 0
        if kind in ("drop", "repeat", "swap") and args[1]:
            non_ascii = np.flatnonzero(np.frombuffer(raw, dtype=np.uint8) >= 0x80)
            at = int(non_ascii[args[0] % len(non_ascii)]) if len(non_ascii) else at
        if kind == "drop":
            raw = raw[:at] + raw[at + 1:]
        elif kind == "repeat":
            raw = raw[:at + 1] + raw[at:]
        elif kind == "swap":
            raw = raw[:at] + raw[at + 1:at + 2] + raw[at:at + 1] + raw[at + 2:]
        elif kind == "crlf":
            raw = raw.replace(b"\n", b"\r\n")
        elif kind == "bom":
            raw = BOM + raw
    return raw


TEXT_READERS = {
    "tsv-sign": (lambda p: load_edge_list(p, "tsv-sign"),
                 lambda p: reference_load_edge_list(p, "tsv-sign")),
    "csv-rating": (lambda p: load_edge_list(p, "csv-rating"),
                   lambda p: reference_load_edge_list(p, "csv-rating")),
    "dense-tsv": (read_edge_tsv, reference_read_edge_tsv),
}


def as_plain(result):
    """A reader's result as the reference states it: edges as rows, and for
    `load_edge_list` n and the id map's items in insertion order."""
    if isinstance(result, tuple):
        edges, n, id_map = result
        return edge_rows(edges), n, list(id_map.items())
    return edge_rows(result)


@pytest.mark.parametrize("fmt", sorted(TEXT_READERS))
@settings(PROPERTY, max_examples=100)
@given(data=st.data(), mutations=TEXT_MUTATIONS)
def test_text_reader_on_a_mutated_file_returns_the_reference_parse_or_names_a_line(
    fmt, data, mutations
):
    read, reference = TEXT_READERS[fmt]
    sep = "," if fmt == "csv-rating" else "\t"
    raw = mutate_text_file(data.draw(edge_files(fmt), label="lines"), sep, mutations)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "edges.txt")
        # The readers drop one leading byte-order mark; the reference reads
        # the file without it.
        ref_path = os.path.join(tmp, "reference.txt")
        for p, b in ((path, raw), (ref_path, raw[3:] if raw.startswith(BOM) else raw)):
            with open(p, "wb") as fh:
                fh.write(b)
        try:
            want = as_plain(reference(ref_path))
        except (DataError, UnicodeDecodeError) as exc:
            want = exc
        try:
            got = as_plain(read(path))
        except DataError as exc:
            got = exc
    if not isinstance(got, DataError):
        assert got == want
        return
    if isinstance(want, DataError) and str(want).replace(ref_path, path) == str(got):
        assert type(got) is type(want)
        return
    # Else the error names a line of the file. Where the reference could
    # decode the file, it is one of the checks that the reference lacks (dense
    # ids past 64 bits), at or before the line of the reference's own error.
    named = re.match(r"line ([1-9][0-9]*): ", str(got))
    assert named, str(got)
    line = int(named.group(1))
    assert line <= raw.count(b"\n") + raw.count(b"\r") + 1
    if not isinstance(want, UnicodeDecodeError):
        assert str(got).endswith(": dense ids must fit in 64 bits"), str(got)
    if isinstance(want, DataError):
        assert line <= int(re.match(r"line ([0-9]+): ", str(want)).group(1))


def _outcome(read, path):
    """What `read(path)` returns, or the ValueError it raises."""
    try:
        return read(path)
    except ValueError as exc:
        return exc


def _same_outcome(got, want):
    """Equal parses, or errors of one type and message (which names the line)."""
    if isinstance(want, ValueError):
        return type(got) is type(want) and str(got) == str(want)
    return not isinstance(got, ValueError) and list(got.items()) == list(want.items())


@settings(PROPERTY, max_examples=100)
@given(raw_ids=st.lists(st.one_of(RAW_IDS, st.just(""), st.just("a\tb")), min_size=1,
                        max_size=6, unique=True),
       mutations=TEXT_MUTATIONS)
def test_load_id_map_on_a_mutated_file_returns_the_reference_parse_or_names_the_line(
    raw_ids, mutations
):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "idmap.tsv")
        save_id_map(path, dict(zip(raw_ids, range(len(raw_ids)))))
        with open(path, "rb") as fh:
            lines = fh.read().decode("utf-8").splitlines()
        with open(path, "wb") as fh:
            fh.write(mutate_text_file(lines, "\t", mutations))
        got = _outcome(load_id_map, path)
        want = _outcome(reference_load_id_map, path)
    assert _same_outcome(got, want), (got, want)


# Lines of a valid `train` config: flags with values of their type, in either
# spelling, and comments that hold non-ASCII characters for the byte
# mutations to cut.
CONFIG_LINES = st.one_of(
    st.tuples(st.sampled_from(("dim", "epochs", "layers", "k", "seed", "svd-rank", "svd_rank")),
              st.integers(1, 64).map(str)),
    st.tuples(st.sampled_from(("c", "lr", "weight-decay", "weight_decay", "split-ratio")),
              st.sampled_from(("0.35", "0.01", "1e-3", "0.2"))),
    st.tuples(st.just("m0"), st.sampled_from(("uniform", "zero"))),
    st.tuples(st.just("#"), WORDS),
).map(lambda kv: f"# {kv[1]}" if kv[0] == "#" else f"{kv[0]} = {kv[1]}")


@settings(PROPERTY, max_examples=100)
@given(lines=st.lists(CONFIG_LINES, min_size=1, max_size=6), mutations=TEXT_MUTATIONS)
def test_config_file_on_a_mutated_file_returns_the_reference_parse_or_names_the_line(
    lines, mutations
):
    # Through `main`, with no prep directory to read: whatever the file
    # holds, `train` exits 2 and creates no out-dir, and an unreadable file
    # is named with its line.
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "run.cfg"), os.path.join(tmp, "out")
        with open(path, "wb") as fh:
            fh.write(mutate_text_file(lines, "=", mutations))
        got = _outcome(_read_config_file, path)
        want = _outcome(reference_read_config_file, path)
        err = io.StringIO()
        # The thread pin writes os.environ; patch.dict restores it.
        with mock.patch.dict(os.environ), contextlib.redirect_stderr(err):
            try:
                code = main(["train", "--prep-dir", os.path.join(tmp, "no-prep"),
                             "--out-dir", out, "--config", path])
            except SystemExit as exc:  # argparse rejects a flag or value
                code = exc.code
        assert code == 2 and not os.path.exists(out)
    assert _same_outcome(got, want), (got, want)
    if isinstance(want, ValueError):
        assert f"error: {want}" in err.getvalue()
