"""Property tests of the invariants the training path rests on, over small
generated signed digraphs: deadends, isolated nodes, self-loops, one-sign
graphs and edgeless graphs; and of the binary readers, over mutated feature
and checkpoint files.

Hypothesis runs derandomized (a fixed example sequence, no example
database), so a failure reproduces on every run.
"""

import os
import struct
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgdnet.diffusion import (
    DiffusionConfig,
    diffuse,
    diffuse_adjoint,
    diffusion_steps,
    error_bound,
    exact_solve,
    l1_distance,
)
from sgdnet.features import load_features, save_features
from sgdnet.graph import build_graph, normalize
from sgdnet.model import EdgeBatch, init_params, load_checkpoint, save_checkpoint

from helpers import assert_precompute_matches_direct_path, dense_block_operator

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
    batch = EdgeBatch(uv=rng.integers(0, g.n, size=(b, 2)),
                      signs=rng.choice(np.array([-1, 1]), size=b))
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
    adj = diffuse_adjoint(na, yp, ym, cfg)
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


def _write_valid(path, artifact, dims, seed):
    """A valid feature file (64 n x d) or checkpoint (d0, d, layers) at
    `path`, of 6 KB to 1 MB: above about 19 KB, a second copy of the payload
    breaks the readers' memory bound below."""
    if artifact == "features":
        n, d = 64 * dims[0], dims[1]
        save_features(path, np.random.default_rng(seed).standard_normal((n, d)))
    else:
        save_checkpoint(path, init_params(*dims, seed=seed), DiffusionConfig(c=0.35, k_steps=4))


def _header_shapes(artifact, raw):
    """The matrix shapes that a file's header states, read independently of
    the loaders: the feature header is magic, u32 version, u64 n, u64 d; the
    checkpoint header is magic, u32 version, u32 d0, u32 d, u32 layers."""
    if artifact == "features":
        return [struct.unpack_from("<QQ", raw, 8)]
    d0, d, n_layers = struct.unpack_from("<III", raw, 8)
    return [(d0, d)] + [(d, d), (2 * d, d)] * n_layers + [(2 * d, 2)]


# A byte offset, taken modulo the file's length: half of them fall in the
# first 32 bytes, which hold the header.
offsets = st.one_of(st.integers(0, 31), st.integers(0, 2**32 - 1))
mutations = st.one_of(
    st.tuples(st.just("truncate"), offsets),
    st.tuples(st.just("append"), st.binary(min_size=1, max_size=16)),
    st.tuples(st.just("xor"), offsets, st.integers(1, 255)),
)


def _mutate(raw: bytes, mutation) -> bytes:
    """Cut the file at an offset, append bytes, or XOR one byte."""
    kind, arg, *mask = mutation
    if kind == "append":
        return raw + arg
    at = arg % len(raw)
    if kind == "truncate":
        return raw[:at]
    out = bytearray(raw)
    out[at] ^= mask[0]
    return bytes(out)


@pytest.mark.parametrize("artifact", ["features", "checkpoint"])
@PROPERTY
@given(
    dims=st.tuples(st.integers(1, 64), st.integers(16, 32), st.integers(1, 3)),
    seed=seeds,
    mutation=mutations,
)
def test_binary_reader_on_a_mutated_file_loads_checked_arrays_or_names_the_file(
    artifact, dims, seed, mutation
):
    load = load_features if artifact == "features" else load_checkpoint
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "artifact.bin")
        _write_valid(path, artifact, dims, seed)
        with open(path, "rb") as fh:
            raw = _mutate(fh.read(), mutation)
        with open(path, "wb") as fh:
            fh.write(raw)

        tracemalloc.start()
        try:
            loaded = load(path)
        except ValueError as exc:
            assert path in str(exc)
            loaded = None
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()

    # The payload, its finiteness mask (1/8 of it) and Python's own overhead.
    assert peak <= 9 / 8 * len(raw) + 16 * 1024
    if loaded is None:
        return
    if artifact == "features":
        arrays = [loaded]
    else:
        params, cfg = loaded
        arrays = [w for _, w in params.named()]
        assert 0 < cfg.c < 1 and cfg.k_steps >= 1
    assert [w.shape for w in arrays] == _header_shapes(artifact, raw)
    assert all(np.all(np.isfinite(w)) for w in arrays)
