import re
import struct
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse as sp

import sgdnet.diffusion
import sgdnet.features
from sgdnet.features import (
    OVERSAMPLE,
    _BLOCK_WORK,
    _block_count,
    _matmul,
    _orthonormal,
    _sign_flips,
    _svd,
    init_features,
    load_features,
    save_features,
)
from sgdnet.graph import SignedEdge, build_graph

from helpers import exactly, jacobi_svd, reference_randomized_svd
from synthetic import planted_partition_graph, random_signed_graph


def test_identity_singular_values():
    u, s = _svd(np.eye(20), 5, OVERSAMPLE, 2, 1)
    assert np.allclose(s, 1.0, atol=1e-10)


def test_rank_one_matrix():
    rng = np.random.default_rng(3)
    a = np.outer(rng.standard_normal(30), rng.standard_normal(25))
    u, s = _svd(a, 3, OVERSAMPLE, 2, 0)
    top = np.sqrt((a * a).sum())  # ||u|| * ||v|| for a rank-1 outer product
    assert abs(s[0] - top) < 1e-8 * top
    assert abs(s[1]) < 1e-8 * top
    assert abs(s[2]) < 1e-8 * top


def test_dense_error_close_to_optimal():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((50, 50))
    rank = 10
    u, s = _svd(a, rank, 10, 2, 11)
    # U U^T A is the rank-`rank` truncation U S V^T of the Rayleigh-Ritz step.
    err = np.linalg.norm(a - u @ (u.T @ a))
    sigma = jacobi_svd(a)
    optimal = np.sqrt((sigma[rank:] ** 2).sum())
    assert err <= 1.10 * optimal


@pytest.mark.parametrize("seed", range(100))
def test_orthonormal_and_ordered_on_random_sparse(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(10, 200))
    m = int(rng.integers(10, 200))
    rank = int(rng.integers(1, min(n, m, 9)))
    a = sp.random(n, m, density=0.05, random_state=np.random.RandomState(seed), format="csr")
    u, s = _svd(a, rank, min(5, min(n, m) - rank), 2, seed)
    assert np.abs(u.T @ u - np.eye(rank)).max() < 1e-8
    assert np.all(s >= 0)
    assert np.all(np.diff(s) <= 1e-12)


def test_determinism_bitwise():
    g = random_signed_graph(60, seed=5)
    x1 = init_features(g, rank=8, seed=42)
    x2 = init_features(g, rank=8, seed=42)
    assert np.array_equal(x1, x2)
    x3 = init_features(g, rank=8, seed=43)
    assert not np.array_equal(x1, x3)


def test_init_features_two_node_positive_edge():
    g = build_graph([SignedEdge(0, 1, 1)], 2)
    x = init_features(g, rank=1, seed=0)
    # The adjacency has a single singular triplet with value 1; only the
    # source row carries the feature after the sign fix.
    assert np.allclose(np.abs(x[0]), [1.0], atol=1e-10)
    assert np.allclose(x[1], [0.0], atol=1e-10)
    assert x[0, 0] > 0


def test_init_features_zero_graph():
    g = build_graph([], 5)
    x = init_features(g, rank=3, seed=0)
    assert x.shape == (5, 3)
    assert np.allclose(x, 0.0)


def test_init_features_rank_checks():
    g = build_graph([SignedEdge(0, 1, 1)], 2)
    with pytest.raises(ValueError):
        init_features(g, rank=3)
    with pytest.raises(ValueError):
        init_features(g, rank=0)


def test_init_features_shape():
    g = random_signed_graph(40, seed=1)
    x = init_features(g, rank=16, seed=9)
    assert x.shape == (40, 16)
    assert np.all(np.isfinite(x))


def test_feature_file_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((7, 3))
    path = tmp_path / "f.sgdf"
    save_features(path, x)
    loaded = load_features(path)
    assert np.array_equal(loaded, x)


@pytest.mark.parametrize("layout", ["big-endian", "fortran"])
def test_feature_file_bytes_do_not_depend_on_the_input_layout(tmp_path, layout):
    x = np.random.default_rng(1).standard_normal((5, 3))
    other = x.astype(">f8") if layout == "big-endian" else np.asfortranarray(x)
    save_features(tmp_path / "a.sgdf", x)
    save_features(tmp_path / "b.sgdf", other)
    raw = (tmp_path / "b.sgdf").read_bytes()
    assert raw == (tmp_path / "a.sgdf").read_bytes()
    assert raw[24:] == x.astype("<f8").tobytes()


def test_feature_file_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.sgdf"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ValueError, match="magic"):
        load_features(path)


# Cut points inside the magic, the version, the shape, the first payload value
# and the last; the header is 24 bytes and the payload 4 x 2 float64.
@pytest.mark.parametrize("keep", [0, 2, 6, 12, 23, 30, 24 + 64 - 8])
def test_feature_file_rejects_truncation(tmp_path, keep):
    x = np.ones((4, 2))
    path = tmp_path / "f.sgdf"
    save_features(path, x)
    raw = path.read_bytes()
    assert len(raw) == 24 + 64
    path.write_bytes(raw[:keep])
    with pytest.raises(ValueError, match="truncated"):
        load_features(path)


# Shapes that claim 2^50 bytes or more, or a size past any index: the loader
# must turn them away before it asks for the memory.
@pytest.mark.parametrize("n, d", [(2**47, 1), (2**31, 2**31), (2**64 - 1, 2**64 - 1)])
def test_feature_file_rejects_a_huge_claimed_shape(tmp_path, n, d):
    path = tmp_path / "f.sgdf"
    save_features(path, np.ones((4, 2)))
    raw = bytearray(path.read_bytes())
    struct.pack_into("<QQ", raw, 8, n, d)
    path.write_bytes(raw)
    with pytest.raises(ValueError, match="truncated"):
        load_features(path)


def test_feature_file_rejects_trailing_bytes(tmp_path):
    path = tmp_path / "f.sgdf"
    save_features(path, np.ones((4, 2)))
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(ValueError, match="trailing"):
        load_features(path)


def _load_with_version(path, version):
    save_features(path, np.ones((4, 2)))
    raw = bytearray(path.read_bytes())
    struct.pack_into("<I", raw, 4, version)
    path.write_bytes(raw)
    return load_features(path)


@pytest.mark.parametrize("call, message", [
    (lambda path: _load_with_version(path, 2), "{path}: unsupported feature file version 2"),
    (lambda path: save_features(path, np.ones(3)), "feature matrix must be 2-D, got shape (3,)"),
    (lambda path: save_features(path, np.ones((2, 2, 2))),
     "feature matrix must be 2-D, got shape (2, 2, 2)"),
], ids=["version", "save-1d", "save-3d"])
def test_feature_file_argument_checks(tmp_path, call, message):
    path = tmp_path / "f.sgdf"
    with pytest.raises(ValueError, match=exactly(message.format(path=path))):
        call(path)


def test_feature_file_rejects_nan(tmp_path):
    x = np.ones((2, 2))
    x[0, 0] = np.inf
    with pytest.raises(ValueError):
        save_features(tmp_path / "f.sgdf", x)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_feature_file_loader_rejects_a_non_finite_value(tmp_path, value):
    path = tmp_path / "f.sgdf"
    save_features(path, np.ones((4, 2)))
    raw = bytearray(path.read_bytes())
    struct.pack_into("<d", raw, len(raw) - 8, value)
    path.write_bytes(raw)
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}: .*non-finite"):
        load_features(path)


def test_runtime_trend_roughly_linear_in_nnz():
    # 8x the edges should cost nowhere near the 64x of a quadratic method.
    # Trend check only; generous slack absorbs machine noise.
    def run_time(n):
        g = random_signed_graph(n, avg_out_degree=8.0, seed=0)
        init_features(g, rank=16, seed=0)  # warmup allocation paths
        best = np.inf
        for _ in range(3):
            start = time.perf_counter()
            init_features(g, rank=16, seed=0)
            best = min(best, time.perf_counter() - start)
        return best

    small = run_time(400)
    large = run_time(3200)
    assert large <= 24.0 * small


# --- SVQB power steps against the Householder-QR reference -------------------


def _assert_matches_reference(a, rank, oversample, power_iters, seed):
    u, s = _svd(a, rank, oversample, power_iters, seed)
    ur, sr = reference_randomized_svd(
        a, rank, oversample=oversample, power_iters=power_iters, seed=seed
    )
    tol = 1e-10 * sr[0]
    assert np.abs(s - sr).max() <= tol
    # Per feature column of X = U S, with the sign fix of `init_features`.
    x = u * np.where(_sign_flips(u), -s, s)
    assert np.abs(x - ur * sr).max(axis=0).max() <= tol


@pytest.mark.parametrize("power_iters", [0, 1, 2, 5])
@pytest.mark.parametrize("kind", ["sparse", "dense"])
def test_svqb_matches_reference_on_random_matrices(kind, power_iters):
    rng = np.random.default_rng(21)
    if kind == "dense":
        a = rng.standard_normal((150, 90))
    else:
        a = sp.random(300, 220, density=0.05, random_state=np.random.RandomState(4), format="csr")
    _assert_matches_reference(a, rank=12, oversample=8, power_iters=power_iters, seed=3)


@pytest.mark.parametrize("power_iters", [0, 1, 2, 5])
@pytest.mark.parametrize(
    "graph",
    [
        lambda: random_signed_graph(400, avg_out_degree=6.0, seed=2),
        lambda: planted_partition_graph(200, avg_out_degree=8.0, seed=1),
    ],
    ids=["random_signed", "planted_partition"],
)
def test_svqb_matches_reference_on_signed_graphs(graph, power_iters):
    _assert_matches_reference(graph().a, rank=16, oversample=10, power_iters=power_iters, seed=5)


def test_svqb_matches_reference_at_bitcoin_alpha_size():
    # The feature shape of the paper's smaller datasets: n = 3,783, rank 128.
    g = random_signed_graph(3783, avg_out_degree=6.4, seed=0)
    _assert_matches_reference(g.a, rank=128, oversample=10, power_iters=2, seed=0)


def _spy(monkeypatch, name):
    """Record the argument shape of every `np.linalg.<name>` call."""
    calls = []
    real = getattr(np.linalg, name)

    def spy(a, *args, **kwargs):
        calls.append(a.shape)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, spy)
    return calls


def _matrix_with_spectrum(sigma, n_rows=150, n_cols=100, seed=0):
    """An n_rows x n_cols matrix whose nonzero singular values are `sigma`."""
    rng = np.random.default_rng(seed)
    left, _ = np.linalg.qr(rng.standard_normal((n_rows, len(sigma))))
    right, _ = np.linalg.qr(rng.standard_normal((n_cols, len(sigma))))
    return (left * sigma) @ right.T


def _block_with_condition(cond, seed=0):
    return _matrix_with_spectrum(np.logspace(0, -np.log10(cond), 24), 300, 24, seed)


def _rank_deficient_block():
    y = _block_with_condition(10.0, seed=1)
    y[:, 5] = y[:, 2]
    return y


# cond 1e3 is inside the SVQB range (Gram ratio 1e-6 > 1e-8); the others are
# not, and a single SVQB pass at cond 1e3 is only orthonormal to ~1e-10.
@pytest.mark.parametrize(
    "y, householder",
    [
        (_block_with_condition(1e3), False),
        (_block_with_condition(1e5), True),
        (_rank_deficient_block(), True),
        (np.zeros((300, 24)), True),
    ],
    ids=["cond-1e3", "cond-1e5", "rank-deficient", "zeros"],
)
def test_orthonormal_basis_on_both_branches(monkeypatch, y, householder):
    calls = _spy(monkeypatch, "qr")
    q = _orthonormal([y])
    assert calls == ([y.shape] if householder else [])
    assert q.shape == y.shape
    assert np.abs(q.T @ q - np.eye(y.shape[1])).max() <= 1e-12
    assert np.abs(q @ (q.T @ y) - y).max() <= 1e-12


def _assert_valid_factors(u, s, rank):
    for x in (u, s):
        assert np.all(np.isfinite(x))
    assert np.abs(u.T @ u - np.eye(rank)).max() < 1e-10
    assert np.all(s >= 0)
    assert np.all(np.diff(s) <= 0)


def _isolated_nodes_graph():
    # 5 connected nodes, 55 isolated ones: the sketch is wider than the rank.
    edges = [SignedEdge(0, 1, 1), SignedEdge(1, 2, -1), SignedEdge(2, 3, 1), SignedEdge(3, 4, 1)]
    return build_graph(edges, 60)


@pytest.mark.parametrize(
    "a, rank, oversample",
    [
        (np.zeros((30, 20)), 4, 6),
        (sp.csr_array((40, 40)), 3, 10),
        (np.outer(np.arange(1.0, 26.0), np.linspace(-1.0, 2.0, 18)), 3, 5),
        (build_graph([SignedEdge(0, 1, 1)], 2).a, 1, 1),
        (_isolated_nodes_graph().a, 6, 10),
    ],
    ids=["zero-dense", "zero-sparse", "rank-one", "two-node", "isolated-nodes"],
)
@pytest.mark.parametrize("power_iters", [0, 2, 5])
def test_degenerate_inputs_give_valid_factors(a, rank, oversample, power_iters):
    u, s = _svd(a, rank, oversample, power_iters, 0)
    _assert_valid_factors(u, s, rank)
    dense = a.toarray() if sp.issparse(a) else a
    # Every matrix here has rank <= `rank`, so its projection onto U
    # reproduces it.
    assert np.abs(dense - u @ (u.T @ dense)).max() <= 1e-10 * max(1.0, np.abs(dense).max())


def test_accuracy_limit_on_a_wide_spectrum():
    # Documented limit: with a top-50 spectrum spanning 1 .. 1e-13, SVQB squares
    # the condition number past double precision, yet the rank-40 error stays
    # within sigma_(k+1) plus 1e-8 * sigma_1.
    rng = np.random.default_rng(8)
    n, rank, oversample = 120, 40, 10
    left, _ = np.linalg.qr(rng.standard_normal((n, n)))
    right, _ = np.linalg.qr(rng.standard_normal((n, n)))
    sigma = np.concatenate([np.logspace(0, -13, 50), np.logspace(-14, -16, n - 50)])
    a = (left * sigma) @ right.T
    u, s = _svd(a, rank, oversample, 2, 1)
    _assert_valid_factors(u, s, rank)
    err = np.linalg.norm(a - u @ (u.T @ a), 2)
    assert err <= 1.1 * sigma[rank] + 1e-8 * sigma[0]


def _negate_pair(svd):
    svd[0][:, 0] *= -1.0
    svd[2][0] *= -1.0


def _negate_eigenvectors(eigh):
    eigh[1][:] *= -1.0


# The Rayleigh-Ritz step is the last call of its LAPACK routine in a run: the
# eigendecomposition of the Gram of a well-conditioned b^T, and the SVD of the
# small matrix of the Householder branch.
@pytest.mark.parametrize(
    "g, name, negate",
    [
        (random_signed_graph(80, seed=3), "eigh", _negate_eigenvectors),
        (_isolated_nodes_graph(), "svd", _negate_pair),
    ],
    ids=["gram", "householder"],
)
def test_sign_fix_does_not_depend_on_the_sign_lapack_returns(monkeypatch, g, name, negate):
    # Negate what the Rayleigh-Ritz step gets from LAPACK: every eigenvector
    # of the Gram, or the first singular pair of the small SVD. In one of the
    # two runs each such column's largest-magnitude entry is negative and gets
    # flipped; the results must agree bit for bit.
    real = getattr(np.linalg, name)
    calls, negate_at = [], []

    def counted(*args, **kwargs):
        out = real(*args, **kwargs)
        calls.append(out)
        if len(calls) in negate_at:
            negate(out)
        return out

    monkeypatch.setattr(np.linalg, name, counted)
    x0 = init_features(g, rank=6, seed=2)
    assert calls
    negate_at.append(2 * len(calls))
    x1 = init_features(g, rank=6, seed=2)
    assert len(calls) == negate_at[0]
    assert np.array_equal(x0, x1)
    # A zero column (a zero singular value) has no sign to fix.
    top = np.argmax(np.abs(x1), axis=0)
    assert np.all(x1[top, np.arange(6)] >= 0)


def test_sign_fix_pivot_is_the_first_largest_magnitude_entry():
    # Small integer entries, so that columns hold +0 and -0, entries +a and
    # -a of equal magnitude, and (in some draws) nothing but zeros. The flips
    # that `init_features` makes must be those of the pivot
    # np.argmax(np.abs(u), axis=0).
    rng = np.random.default_rng(0)
    kinds = {"signed_zero": 0, "opposite_tie": 0, "zero_column": 0}
    for _ in range(2000):
        rows, cols = (int(k) for k in rng.integers(1, 7, size=2))
        u = rng.integers(-2, 3, size=(rows, cols)).astype(np.float64)
        u[rng.random(u.shape) < 0.2] = -0.0
        u[:, rng.random(cols) < 0.15] = 0.0
        a = np.abs(u).max(axis=0)
        kinds["signed_zero"] += bool(np.any(np.signbit(u) & (u == 0)))
        kinds["opposite_tie"] += bool(np.any((u == a).any(axis=0) & (u == -a).any(axis=0) & (a > 0)))
        kinds["zero_column"] += bool(np.any(a == 0))

        top = np.argmax(np.abs(u), axis=0)
        assert np.array_equal(_sign_flips(u), u[top, np.arange(cols)] < 0)
    assert min(kinds.values()) > 100, kinds


@pytest.mark.parametrize(
    "graph, rank, householder",
    [
        (lambda: random_signed_graph(300, avg_out_degree=6.0, seed=4), 16, False),
        (lambda: planted_partition_graph(120, avg_out_degree=8.0, seed=2), 8, False),
        (lambda: build_graph([], 5), 3, True),
        (lambda: build_graph([SignedEdge(0, 1, 1)], 2), 1, True),
        (_isolated_nodes_graph, 6, True),
    ],
    ids=["random_signed", "planted_partition", "zero", "two-node", "rank-deficient"],
)
def test_init_features_is_u_times_s_of_svd_bit_for_bit(monkeypatch, graph, rank, householder):
    # init_features flips and scales U in one pass; its values, signed zeros
    # included, must be u * s of `_svd` with u's columns negated where the
    # pivot np.argmax(np.abs(u), axis=0) is negative.
    g = graph()
    svd_calls = _spy(monkeypatch, "svd")
    x = init_features(g, rank, seed=7)
    assert bool(svd_calls) == householder
    u, s = _svd(g.a, rank, min(OVERSAMPLE, g.n - rank), 2, 7)
    flip = u[np.argmax(np.abs(u), axis=0), np.arange(rank)] < 0
    np.negative(u, out=u, where=flip)
    assert np.array_equal(x, u * s)
    assert np.array_equal(np.signbit(x), np.signbit(u * s))


# A 150 x 100 matrix of rank 20, sketched with 12 + 8 columns, so that b^T is
# 100 x 20 and its condition number is that of the spectrum. The power steps
# leave the 150 x 20 sketch ill-conditioned in both cases, so it takes a
# Householder QR of its own shape.
@pytest.mark.parametrize("decades, gram", [(3.0, True), (12.0, False)], ids=["cond-1e3", "wide"])
def test_rayleigh_ritz_branch(monkeypatch, decades, gram):
    a = _matrix_with_spectrum(np.logspace(0, -decades, 20))
    qr_calls, svd_calls = _spy(monkeypatch, "qr"), _spy(monkeypatch, "svd")
    u, s = _svd(a, 12, 8, 2, 3)
    assert qr_calls.count((100, 20)) == (0 if gram else 1)
    assert svd_calls == ([] if gram else [(20, 20)])
    _assert_valid_factors(u, s, 12)
    monkeypatch.undo()
    _assert_matches_reference(a, rank=12, oversample=8, power_iters=2, seed=3)


# Rank 20 with oversample 0, so the Rayleigh-Ritz step sees the whole spectrum
# and the Gram's eigenvalues span twice its decades: 10^-7.8 is inside the
# switch (ratio > 1e-8) and 10^-8.2 is outside.
@pytest.mark.parametrize("decades, gram", [(3.9, True), (4.1, False)], ids=["inside", "outside"])
def test_singular_value_accuracy_at_the_gram_switch(monkeypatch, decades, gram):
    # sqrt of the Gram's eigenvalues: sigma_j has relative error about
    # eps (sigma_1 / sigma_j)^2. The Householder branch keeps
    # eps sigma_1 / sigma_j.
    sigma = np.logspace(0, -decades, 20)
    svd_calls = _spy(monkeypatch, "svd")
    u, s = _svd(_matrix_with_spectrum(sigma), 20, 0, 2, 0)
    assert len(svd_calls) == (0 if gram else 1)
    eps = np.finfo(np.float64).eps
    growth = (sigma[0] / sigma) ** (2 if gram else 1)
    assert np.all(np.abs(s - sigma) <= 8 * eps * growth * sigma)
    assert np.abs(u.T @ u - np.eye(20)).max() <= 1e-12


# --- the SVD worker: fixed row blocks, bitwise on any CPU count ----------------


def _spy_blocks(monkeypatch):
    """Record (worker given, block count) of every `_each_block` call."""
    calls = []
    real = sgdnet.features._each_block

    def spy(worker, fn, blocks):
        calls.append((worker is not None, len(blocks)))
        return real(worker, fn, blocks)

    monkeypatch.setattr(sgdnet.features, "_each_block", spy)
    return calls


# Every graph of this file, and two whose passes split: Alpha's size at rank
# 128 (17 dense blocks) and the memory table's at rank 32 (8 dense blocks).
CPU_COUNT_CASES = {
    "random-60": (lambda: random_signed_graph(60, seed=5), 8),
    "random-300": (lambda: random_signed_graph(300, avg_out_degree=6.0, seed=4), 16),
    "planted-200": (lambda: planted_partition_graph(200, avg_out_degree=8.0, seed=1), 16),
    "isolated-nodes": (_isolated_nodes_graph, 6),
    "zero": (lambda: build_graph([], 5), 3),
    "two-node": (lambda: build_graph([SignedEdge(0, 1, 1)], 2), 1),
    "alpha-size": (lambda: random_signed_graph(3783, avg_out_degree=6.4, seed=0), 128),
    "memory-row": (lambda: random_signed_graph(20000, avg_out_degree=8.0, seed=0), 32),
}


@pytest.mark.parametrize("case", CPU_COUNT_CASES)
def test_init_features_bytes_do_not_depend_on_the_cpu_count(monkeypatch, case):
    graph, rank = CPU_COUNT_CASES[case]
    g = graph()
    calls = _spy_blocks(monkeypatch)
    runs = []
    for cpus in (1, 2):
        monkeypatch.setattr(sgdnet.diffusion, "_usable_cpus", lambda: cpus)
        runs.append(init_features(g, rank, seed=3).tobytes())
    assert runs[0] == runs[1]
    split = [worker for worker, count in calls if count > 1]
    assert split == ([False] * (len(split) // 2) + [True] * (len(split) // 2))
    assert bool(split) == (case in ("alpha-size", "memory-row"))


@pytest.mark.parametrize("case", ["alpha-size", "memory-row"])
def test_init_features_in_blocks_equals_whole_passes(monkeypatch, case):
    # With one block per pass every product runs whole, as an unsplit SVD
    # computes it; the blocks, on the worker and the calling thread, must
    # give the same bits.
    graph, rank = CPU_COUNT_CASES[case]
    g = graph()
    monkeypatch.setattr(sgdnet.diffusion, "_usable_cpus", lambda: 2)
    split = init_features(g, rank, seed=3)
    monkeypatch.setattr(sgdnet.features, "_block_count", lambda n_rows, row_work: 1)
    assert split.tobytes() == init_features(g, rank, seed=3).tobytes()


# The SVD's dense products are n x k times k x k (the basis changes) and
# n x k times k x (k - OVERSAMPLE) (U = Q W), for k = rank + OVERSAMPLE; a
# one-column product never splits. Each is split, on a worker, at row counts
# from the least that splits, where blocks are smallest and the small-product
# kernels nearest, upward.
DENSE_PRODUCTS = [(k, cols) for k in (11, 17, 42, 138) for cols in (k, k - OVERSAMPLE) if cols > 1]


@pytest.mark.parametrize("k, cols", DENSE_PRODUCTS)
def test_split_dense_products_equal_the_whole_product(k, cols):
    least = -(-2 * _BLOCK_WORK // (k * cols))
    rng = np.random.default_rng(k)
    r = rng.standard_normal((k, cols))
    with ThreadPoolExecutor(max_workers=1) as worker:
        for n in (least - 1, least, least + 1, least + 37, 3 * least + 5):
            y = rng.standard_normal((n, k))
            assert (_block_count(n, k * cols) > 1) == (n >= least)
            assert _matmul(y, r, worker).tobytes() == (y @ r).tobytes(), n


def test_one_column_products_run_whole(monkeypatch):
    monkeypatch.setattr(sgdnet.features, "_BLOCK_WORK", 16)
    calls = _spy_blocks(monkeypatch)
    y = np.random.default_rng(0).standard_normal((400, 11))
    with ThreadPoolExecutor(max_workers=1) as worker:
        assert _matmul(y, y[:11, :1], worker).tobytes() == (y @ y[:11, :1]).tobytes()
        assert calls == []
        _matmul(y, y[:11, :2], worker)
        assert calls == [(True, 32)]


def test_sign_flips_in_blocks_equal_one_pass(monkeypatch):
    # Ties and signed zeros across block boundaries, zero columns and NaN
    # entries: the blocked scans, with one block of one or two rows per
    # thread at a time, pick the flips of one pass over u.
    rng = np.random.default_rng(1)
    cases = []
    for _ in range(300):
        u = rng.integers(-2, 3, size=(int(rng.integers(33, 70)), int(rng.integers(1, 6))))
        u = u.astype(np.float64)
        u[rng.random(u.shape) < 0.2] = -0.0
        u[:, rng.random(u.shape[1]) < 0.15] = 0.0
        u[rng.random(u.shape) < 0.01] = np.nan
        cases.append((u, _sign_flips(u)))
    monkeypatch.setattr(sgdnet.features, "_BLOCK_WORK", 1)
    assert _block_count(33, 1) == 32
    with ThreadPoolExecutor(max_workers=1) as worker:
        for u, flips in cases:
            assert np.array_equal(_sign_flips(u, worker), flips)


def test_each_block_runs_every_block_once_under_contention():
    # Four callers, each with its own worker: eight threads on fewer cores,
    # switching every microsecond, and each block gives up the GIL as a
    # product does. A block run twice or skipped shows in the counts, and a
    # result stored in another block's slot in the order.
    blocks = sgdnet.features._row_blocks(6400, 32)
    results, interval = [], sys.getswitchinterval()

    def caller():
        counts = [0] * len(blocks)

        def fn(rows):
            time.sleep(0)
            counts[rows.start // 200] += 1
            return rows.start

        with ThreadPoolExecutor(max_workers=1) as worker:
            for _ in range(50):
                out = sgdnet.features._each_block(worker, fn, blocks)
                results.append(out == [rows.start for rows in blocks])
        results.append(counts == [50] * len(blocks))

    threads = [threading.Thread(target=caller) for _ in range(4)]
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 4 * 51 and all(results)


def test_split_sparse_product_equals_the_whole_product(monkeypatch):
    g = random_signed_graph(3783, avg_out_degree=6.4, seed=1)
    z = np.random.default_rng(2).standard_normal((g.n, 138))
    whole = (g.a @ z).tobytes()
    calls = _spy_blocks(monkeypatch)
    with ThreadPoolExecutor(max_workers=1) as worker:
        assert _matmul(g.a, z, worker).tobytes() == whole
        assert calls == []  # too little work per block at this size
        monkeypatch.setattr(sgdnet.features, "_SPARSE_BLOCK_WORK", 1)
        assert _matmul(g.a, z, worker).tobytes() == whole
        assert calls == [(True, 32)]
