import numpy as np
import pytest
import scipy.sparse as sp

from sgdnet.features import (
    init_features,
    load_features,
    randomized_svd,
    save_features,
    signed_adjacency,
)
from sgdnet.graph import SignedEdge, build_graph
from sgdnet.synthetic import planted_partition_graph, random_signed_graph

from helpers import jacobi_svd, reference_randomized_svd


def test_identity_singular_values():
    u, s, v = randomized_svd(np.eye(20), rank=5, seed=1)
    assert np.allclose(s, 1.0, atol=1e-10)


def test_rank_one_matrix():
    rng = np.random.default_rng(3)
    a = np.outer(rng.standard_normal(30), rng.standard_normal(25))
    u, s, v = randomized_svd(a, rank=3, seed=0)
    top = np.sqrt((a * a).sum())  # ||u|| * ||v|| for a rank-1 outer product
    assert abs(s[0] - top) < 1e-8 * top
    assert abs(s[1]) < 1e-8 * top
    assert abs(s[2]) < 1e-8 * top


def test_dense_error_close_to_optimal():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((50, 50))
    rank = 10
    u, s, v = randomized_svd(a, rank=rank, oversample=10, power_iters=2, seed=11)
    err = np.linalg.norm(a - (u * s) @ v.T)
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
    u, s, v = randomized_svd(a, rank=rank, oversample=min(5, min(n, m) - rank), seed=seed)
    assert np.abs(u.T @ u - np.eye(rank)).max() < 1e-8
    assert np.abs(v.T @ v - np.eye(rank)).max() < 1e-8
    assert np.all(s >= 0)
    assert np.all(np.diff(s) <= 1e-12)


def test_rank_validation():
    a = np.eye(6)
    with pytest.raises(ValueError):
        randomized_svd(a, rank=7)
    with pytest.raises(ValueError):
        randomized_svd(a, rank=0)
    with pytest.raises(ValueError):
        randomized_svd(a, rank=4, oversample=5)


def test_non_finite_rejected():
    a = np.eye(4)
    a[2, 2] = np.nan
    with pytest.raises(ValueError):
        randomized_svd(a, rank=2, oversample=1)


def test_determinism_bitwise():
    g = random_signed_graph(60, seed=5)
    x1 = init_features(g, rank=8, seed=42)
    x2 = init_features(g, rank=8, seed=42)
    assert np.array_equal(x1, x2)
    x3 = init_features(g, rank=8, seed=43)
    assert not np.array_equal(x1, x3)


def test_signed_adjacency_carries_signs():
    g = build_graph([SignedEdge(0, 1, 1), SignedEdge(1, 0, -1)], 2)
    a = signed_adjacency(g).toarray()
    assert a[0, 1] == 1.0
    assert a[1, 0] == -1.0


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


def test_feature_file_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.sgdf"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ValueError, match="magic"):
        load_features(path)


def test_feature_file_rejects_truncation(tmp_path):
    x = np.ones((4, 2))
    path = tmp_path / "f.sgdf"
    save_features(path, x)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(ValueError, match="truncated"):
        load_features(path)


def test_feature_file_rejects_nan(tmp_path):
    x = np.ones((2, 2))
    x[0, 0] = np.inf
    with pytest.raises(ValueError):
        save_features(tmp_path / "f.sgdf", x)


def test_runtime_trend_roughly_linear_in_nnz():
    # 8x the edges should cost nowhere near the 64x of a quadratic method.
    # Trend check only; generous slack absorbs machine noise.
    import time

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
    u, s, v = randomized_svd(a, rank, oversample=oversample, power_iters=power_iters, seed=seed)
    ur, sr, vr = reference_randomized_svd(
        a, rank, oversample=oversample, power_iters=power_iters, seed=seed
    )
    tol = 1e-10 * sr[0]
    assert np.abs(s - sr).max() <= tol
    # Per feature column of X = U S, and of V S for the right factor.
    assert np.abs(u * s - ur * sr).max(axis=0).max() <= tol
    assert np.abs(v * s - vr * sr).max(axis=0).max() <= tol


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
    _assert_matches_reference(
        signed_adjacency(graph()), rank=16, oversample=10, power_iters=power_iters, seed=5
    )


def test_svqb_matches_reference_at_bitcoin_alpha_size():
    # The feature shape of the paper's smaller datasets: n = 3,783, rank 128.
    g = random_signed_graph(3783, avg_out_degree=6.4, seed=0)
    _assert_matches_reference(signed_adjacency(g), rank=128, oversample=10, power_iters=2, seed=0)


def _assert_valid_factors(u, s, v, rank):
    for x in (u, s, v):
        assert np.all(np.isfinite(x))
    assert np.abs(u.T @ u - np.eye(rank)).max() < 1e-10
    assert np.abs(v.T @ v - np.eye(rank)).max() < 1e-10
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
        (signed_adjacency(build_graph([SignedEdge(0, 1, 1)], 2)), 1, 1),
        (signed_adjacency(_isolated_nodes_graph()), 6, 10),
    ],
    ids=["zero-dense", "zero-sparse", "rank-one", "two-node", "isolated-nodes"],
)
@pytest.mark.parametrize("power_iters", [0, 2, 5])
def test_degenerate_inputs_give_valid_factors(a, rank, oversample, power_iters):
    u, s, v = randomized_svd(a, rank, oversample=oversample, power_iters=power_iters, seed=0)
    _assert_valid_factors(u, s, v, rank)
    dense = a.toarray() if sp.issparse(a) else a
    # Every matrix here has rank <= `rank`, so the factors reproduce it.
    assert np.abs(dense - (u * s) @ v.T).max() <= 1e-10 * max(1.0, np.abs(dense).max())


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
    u, s, v = randomized_svd(a, rank, oversample=oversample, power_iters=2, seed=1)
    _assert_valid_factors(u, s, v, rank)
    err = np.linalg.norm(a - (u * s) @ v.T, 2)
    assert err <= 1.1 * sigma[rank] + 1e-8 * sigma[0]


def test_sign_fix_does_not_depend_on_the_sign_lapack_returns(monkeypatch):
    # Negate the first singular pair of the small SVD. In one of the two runs
    # that column's largest-magnitude entry is negative and gets flipped; the
    # results must agree bit for bit.
    a = signed_adjacency(random_signed_graph(80, seed=3))
    u0, s0, v0 = randomized_svd(a, rank=6, oversample=4, seed=2)
    real_svd = np.linalg.svd

    def negated_first_pair(x, full_matrices=True):
        left, s, right = real_svd(x, full_matrices=full_matrices)
        left[:, 0] *= -1.0
        right[0] *= -1.0
        return left, s, right

    monkeypatch.setattr(np.linalg, "svd", negated_first_pair)
    u1, s1, v1 = randomized_svd(a, rank=6, oversample=4, seed=2)
    for x0, x1 in ((u0, u1), (s0, s1), (v0, v1)):
        assert np.array_equal(x0, x1)
    top = np.argmax(np.abs(u1), axis=0)
    assert np.all(u1[top, np.arange(6)] > 0)
