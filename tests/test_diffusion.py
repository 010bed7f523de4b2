import multiprocessing
import sys
import threading
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

import sgdnet.diffusion as diffusion_module
from sgdnet.diffusion import (
    EXACT_MAX_N,
    DiffusionConfig,
    DiffusionState,
    diffuse,
    diffusion_steps,
    error_bound,
    exact_solve,
    l1_distance,
)
from sgdnet.graph import SignedEdge, build_graph, normalize

from helpers import (
    adjoint,
    block_exact_solve,
    dense_block_operator,
    exactly,
    per_sign_operators,
    reference_diffuse_adjoint,
    reference_diffusion_states,
    stored_layout_diffuse_adjoint,
    stored_layout_diffusion_states,
)
from synthetic import random_signed_graph


def toy_na(sign=1):
    return normalize(build_graph([SignedEdge(0, 1, sign)], 2))


def zero_cfg(c, k):
    return DiffusionConfig(c=c, k_steps=k, m0_mode="zero")


H_TOY = np.array([[1.0], [0.0]])


# ---------------------------------------------------------------- recurrence


def test_positive_edge_hand_unrolled():
    na = toy_na(+1)
    p1, m1 = diffuse(na, H_TOY, zero_cfg(0.5, 1))
    assert np.allclose(p1, [[0.5], [0.5]])
    assert np.allclose(m1, [[0.0], [0.0]])
    p2, m2 = diffuse(na, H_TOY, zero_cfg(0.5, 2))
    assert np.allclose(p2, [[0.5], [0.25]])
    assert np.allclose(m2, [[0.0], [0.0]])


def test_negative_edge_flips_channel():
    na = toy_na(-1)
    p1, m1 = diffuse(na, H_TOY, zero_cfg(0.5, 1))
    assert np.allclose(p1, [[0.5], [0.0]])
    assert np.allclose(m1, [[0.0], [0.5]])


def test_zero_features_zero_fixed_point():
    na = toy_na(+1)
    for k in (1, 3, 7):
        p, m = diffuse(na, np.zeros((2, 3)), zero_cfg(0.3, k))
        assert np.all(p == 0.0) and np.all(m == 0.0)


def test_negative_channel_decays_on_positive_only_graph():
    edges = [SignedEdge(0, 1, 1), SignedEdge(1, 2, 1), SignedEdge(2, 0, 1)]
    na = normalize(build_graph(edges, 3))
    h = np.random.default_rng(0).standard_normal((3, 4))
    c = 0.4
    # The negative channel starts at the uniform draw `diffuse` makes.
    m0 = np.random.default_rng(1).uniform(-1, 1, size=h.shape)
    m0_l1 = np.abs(m0).sum(axis=0).max()
    for k in (1, 2, 5, 10):
        cfg = DiffusionConfig(c=c, k_steps=k, m0_mode="uniform")
        _, m = diffuse(na, h, cfg, rng=np.random.default_rng(1))
        assert np.abs(m).sum(axis=0).max() <= (1 - c) ** k * m0_l1 + 1e-12


def test_shape_and_finite_validation():
    na = toy_na(+1)
    with pytest.raises(ValueError):
        diffuse(na, np.zeros((3, 1)), zero_cfg(0.5, 1))
    bad = np.array([[np.nan], [0.0]])
    with pytest.raises(ValueError):
        diffuse(na, bad, zero_cfg(0.5, 1))


def test_config_validation():
    with pytest.raises(ValueError):
        DiffusionConfig(c=0.0, k_steps=1)
    with pytest.raises(ValueError):
        DiffusionConfig(c=1.0, k_steps=1)
    with pytest.raises(ValueError):
        DiffusionConfig(c=0.5, k_steps=0)
    with pytest.raises(ValueError):
        DiffusionConfig(c=0.5, k_steps=1, m0_mode="sideways")


@pytest.mark.parametrize("call, message", [
    (lambda: exact_solve(toy_na(+1), H_TOY, 1.0),
     "local injection ratio c must lie in (0, 1), got 1.0"),
    (lambda: exact_solve(toy_na(+1), H_TOY, 0.0),
     "local injection ratio c must lie in (0, 1), got 0.0"),
    (lambda: error_bound(DiffusionState(H_TOY, H_TOY), DiffusionState(H_TOY[:1], H_TOY), 0.5, 1),
     "state shapes do not match"),
    (lambda: error_bound(DiffusionState(H_TOY, H_TOY), DiffusionState(H_TOY, H_TOY.T), 0.5, 1),
     "state shapes do not match"),
], ids=["exact-c-1", "exact-c-0", "bound-p-shape", "bound-m-shape"])
def test_argument_checks(call, message):
    with pytest.raises(ValueError, match=exactly(message)):
        call()


def test_uniform_m0_needs_rng():
    na = toy_na(+1)
    cfg = DiffusionConfig(c=0.5, k_steps=1, m0_mode="uniform")
    with pytest.raises(ValueError):
        diffuse(na, H_TOY, cfg)
    p, m = diffuse(na, H_TOY, cfg, rng=np.random.default_rng(0))
    assert np.all(np.isfinite(p)) and np.all(np.isfinite(m))


# ---------------------------------------------------------------- exact solve


def test_exact_solve_positive_edge():
    star = exact_solve(toy_na(+1), H_TOY, 0.5)
    assert np.allclose(star.p, [[0.5], [0.25]])
    assert np.allclose(star.m, [[0.0], [0.0]])


def test_exact_solve_negative_edge():
    star = exact_solve(toy_na(-1), H_TOY, 0.5)
    assert np.allclose(star.p, [[0.5], [0.0]])
    assert np.allclose(star.m, [[0.0], [0.25]])


def test_exact_solve_empty_graph_is_scaled_injection():
    na = normalize(build_graph([], 3))
    h = np.arange(6, dtype=np.float64).reshape(3, 2)
    star = exact_solve(na, h, 0.3)
    assert np.allclose(star.p, 0.3 * h)
    assert np.allclose(star.m, 0.0)


def test_exact_solve_size_guard():
    n = EXACT_MAX_N + 1
    g = build_graph([SignedEdge(0, 1, 1)], n)
    with pytest.raises(ValueError, match=f"n <= {EXACT_MAX_N}"):
        exact_solve(normalize(g), np.zeros((n, 1)), 0.5)


def test_exact_solve_follows_the_size_limit(monkeypatch):
    na = normalize(random_signed_graph(12, seed=5))
    h = np.ones((12, 1))
    monkeypatch.setattr(diffusion_module, "EXACT_MAX_N", 12)
    assert exact_solve(na, h, 0.5).p.shape == (12, 1)
    monkeypatch.setattr(diffusion_module, "EXACT_MAX_N", 11)
    with pytest.raises(ValueError, match="n <= 11, got n=12"):
        exact_solve(na, h, 0.5)


def test_exact_solve_is_fixed_point():
    g = random_signed_graph(30, seed=2)
    na = normalize(g)
    rng = np.random.default_rng(3)
    h = rng.standard_normal((30, 4))
    c = 0.25
    star = exact_solve(na, h, c)
    ap, an = per_sign_operators(g)
    ap_t, an_t = ap.T, an.T
    p_next = (1 - c) * (ap_t @ star.p + an_t @ star.m) + c * h
    m_next = (1 - c) * (an_t @ star.p + ap_t @ star.m)
    assert np.allclose(p_next, star.p, atol=1e-12)
    assert np.allclose(m_next, star.m, atol=1e-12)


@pytest.mark.parametrize("graph", ["deadends", "edgeless", "random"])  # BITWISE_GRAPHS
@pytest.mark.parametrize("c", [0.15, 0.5, 0.85])
def test_exact_solve_matches_the_per_sign_block_solve(graph, c):
    g = BITWISE_GRAPHS[graph]()
    h = np.random.default_rng(g.n).standard_normal((g.n, 3))
    star = exact_solve(normalize(g), h, c)
    assert_rel_close(np.vstack(star), np.vstack(block_exact_solve(g, h, c)))


# ---------------------------------------------------------------- convergence


@pytest.mark.parametrize("c", [0.15, 0.5, 0.85])
def test_contraction_bound_small_suite(c):
    for seed in range(5):
        g = random_signed_graph(40, avg_out_degree=4.0, deadend_fraction=0.2, seed=seed)
        na = normalize(g)
        rng = np.random.default_rng(100 + seed)
        h = rng.standard_normal((g.n, 3))
        star = exact_solve(na, h, c)
        cfg = DiffusionConfig(c=c, k_steps=12, m0_mode="zero")
        t0 = None
        for k, state in enumerate(diffusion_steps(na, h, cfg)):
            if k == 0:
                t0 = state
                continue
            assert l1_distance(star, state) <= error_bound(t0, star, c, k) + 1e-12


def test_initial_value_independence():
    g = random_signed_graph(25, seed=9)
    na = normalize(g)
    rng = np.random.default_rng(4)
    h = rng.standard_normal((g.n, 2))
    c, k = 0.3, 15
    m0_b = np.random.default_rng(5).uniform(-1, 1, size=h.shape)
    run_a = diffuse(na, h, zero_cfg(c, k))
    uniform_cfg = DiffusionConfig(c=c, k_steps=k, m0_mode="uniform")
    run_b = diffuse(na, h, uniform_cfg, rng=np.random.default_rng(5))
    t0_gap = l1_distance(
        DiffusionState(h, np.zeros_like(h)), DiffusionState(h, m0_b)
    )
    assert l1_distance(run_a, run_b) <= (1 - c) ** k * t0_gap + 1e-12


def test_linearity_in_features():
    g = random_signed_graph(20, seed=11)
    na = normalize(g)
    rng = np.random.default_rng(5)
    h1 = rng.standard_normal((g.n, 3))
    h2 = rng.standard_normal((g.n, 3))
    a, b = 2.5, -1.25
    cfg = zero_cfg(0.4, 6)
    combined = diffuse(na, a * h1 + b * h2, cfg)
    s1 = diffuse(na, h1, cfg)
    s2 = diffuse(na, h2, cfg)
    assert np.allclose(combined.p, a * s1.p + b * s2.p, atol=1e-12)
    assert np.allclose(combined.m, a * s1.m + b * s2.m, atol=1e-12)


# ---------------------------------------------------------------- adjoint


def test_adjoint_dot_product_identity():
    # <T_K(x), y> == <x, adjoint(y)> for the linear map x -> T_K with zero M0.
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(5, 40)), int(rng.integers(1, 5))
        g = random_signed_graph(n, avg_out_degree=3.0, deadend_fraction=0.2, seed=seed)
        na = normalize(g)
        cfg = zero_cfg(float(rng.uniform(0.1, 0.9)), int(rng.integers(1, 8)))
        x = rng.standard_normal((n, d))
        yp = rng.standard_normal((n, d))
        ym = rng.standard_normal((n, d))
        p, m = diffuse(na, x, cfg)
        lhs = float((p * yp).sum() + (m * ym).sum())
        rhs = float((x * adjoint(na, yp, ym, cfg)).sum())
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_adjoint_empty_graph_k1():
    na = normalize(build_graph([], 4))
    cfg = zero_cfg(0.35, 1)
    gp = np.arange(8, dtype=np.float64).reshape(4, 2)
    gm = np.ones((4, 2))
    grad = adjoint(na, gp, gm, cfg)
    assert np.allclose(grad, cfg.c * gp)


def test_adjoint_finite_differences():
    n, d, k = 5, 3, 4
    g = random_signed_graph(n, avg_out_degree=3.0, seed=21)
    na = normalize(g)
    cfg = zero_cfg(0.5, k)
    rng = np.random.default_rng(8)
    x = rng.standard_normal((n, d))
    weights = rng.standard_normal((n, d))  # scalar loss: sum(weights * P) + sum(weights * M)

    def scalar_loss(features):
        p, m = diffuse(na, features, cfg)
        return float((weights * p).sum() + (weights * m).sum())

    analytic = adjoint(na, weights, weights, cfg)
    step = 1e-6
    worst = 0.0
    for i in range(n):
        for j in range(d):
            bumped = x.copy()
            bumped[i, j] += step
            up = scalar_loss(bumped)
            bumped[i, j] -= 2 * step
            down = scalar_loss(bumped)
            fd = (up - down) / (2 * step)
            a = analytic[i, j]
            worst = max(worst, abs(a - fd) / max(abs(a), abs(fd), 1e-8))
    assert worst < 1e-6


# ---------------------------------------------------------------- bounds


def test_error_bound_k_zero_is_distance():
    a = DiffusionState(np.ones((3, 2)), np.zeros((3, 2)))
    b = DiffusionState(np.zeros((3, 2)), np.zeros((3, 2)))
    assert error_bound(a, b, c=0.5, k_steps=0) == l1_distance(b, a)


def test_error_bound_vanishes_as_c_approaches_one():
    a = DiffusionState(np.ones((2, 1)), np.ones((2, 1)))
    b = DiffusionState(np.zeros((2, 1)), np.zeros((2, 1)))
    assert error_bound(a, b, c=1.0 - 1e-12, k_steps=1) < 1e-11


def test_error_bound_toy_arithmetic():
    na = toy_na(+1)
    star = exact_solve(na, H_TOY, 0.5)
    t0 = DiffusionState(H_TOY.copy(), np.zeros_like(H_TOY))
    expected = 0.5**10 * l1_distance(star, t0)
    assert np.isclose(error_bound(t0, star, 0.5, 10), expected)


def test_block_operator_matches_dense_iteration():
    # One sparse blockwise step equals one dense-operator step.
    g = random_signed_graph(15, seed=31)
    na = normalize(g)
    rng = np.random.default_rng(31)
    h = rng.standard_normal((g.n, 2))
    c = 0.45
    state = diffuse(na, h, zero_cfg(c, 1))
    b_dense = dense_block_operator(g)
    t0 = np.vstack([h, np.zeros_like(h)])
    q = np.vstack([h, np.zeros_like(h)])
    t1 = (1 - c) * b_dense @ t0 + c * q
    assert np.allclose(np.vstack([state.p, state.m]), t1, atol=1e-12)


# ---------------------------------------------------------------- fused iteration


def assert_rel_close(actual, reference, rtol=1e-12):
    actual, reference = np.asarray(actual), np.asarray(reference)
    assert actual.shape == reference.shape
    assert np.abs(actual - reference).max(initial=0.0) <= rtol * np.abs(reference).max(
        initial=0.0
    )


EQUIVALENCE_GRAPHS = {
    "deadends": lambda: random_signed_graph(
        30, avg_out_degree=3.0, neg_fraction=0.4, deadend_fraction=0.3, seed=41
    ),
    "empty": lambda: build_graph([], 7),
}


def start_rng(m0_mode, shape):
    """The generator the negative channel is drawn from: a fresh one for
    "uniform", and for "redrawn" one that has drawn once already, as in
    every epoch of `train` after the first."""
    rng = np.random.default_rng(7)
    if m0_mode == "redrawn":
        rng.uniform(-1.0, 1.0, size=shape)
    return rng


def start_m0(m0_mode, shape):
    """The negative channel of T0 that `start_rng` gives."""
    if m0_mode == "zero":
        return np.zeros(shape)
    return start_rng(m0_mode, shape).uniform(-1.0, 1.0, size=shape)


def start_cfg(m0_mode, c, k):
    return DiffusionConfig(c=c, k_steps=k, m0_mode="zero" if m0_mode == "zero" else "uniform")


START_MODES = ["zero", "uniform", "redrawn"]


@pytest.mark.parametrize("graph", sorted(EQUIVALENCE_GRAPHS))
@pytest.mark.parametrize("m0_mode", START_MODES)
@pytest.mark.parametrize("k", [1, 5, 20])
@pytest.mark.parametrize("c", [0.15, 0.5, 0.85])
def test_fused_diffusion_matches_per_sign_recurrence(graph, m0_mode, k, c):
    g = EQUIVALENCE_GRAPHS[graph]()
    na = normalize(g)
    rng = np.random.default_rng(k)
    h = rng.standard_normal((na.n, 3))
    m0 = start_m0(m0_mode, h.shape)
    cfg = start_cfg(m0_mode, c, k)
    reference = reference_diffusion_states(g, h, c, k, m0)

    p, m = diffuse(na, h, cfg, rng=start_rng(m0_mode, h.shape))
    assert_rel_close(np.vstack([p, m]), np.vstack(reference[-1]))

    states = list(diffusion_steps(na, h, cfg, rng=start_rng(m0_mode, h.shape)))
    assert len(states) == k + 1
    assert np.array_equal(states[0].p, h) and np.array_equal(states[0].m, m0)
    for state, ref in zip(states, reference):
        assert_rel_close(np.vstack(state), np.vstack(ref))

    gp = rng.standard_normal(h.shape)
    gm = rng.standard_normal(h.shape)
    assert_rel_close(
        adjoint(na, gp, gm, cfg), reference_diffuse_adjoint(g, gp, gm, c, k)
    )


def test_fused_operators_are_sum_and_difference_pairs():
    g = EQUIVALENCE_GRAPHS["deadends"]()
    na = normalize(g)
    ap, an = (a.toarray() for a in per_sign_operators(g))
    assert len(na.adj) == 2
    for op, dense in zip(na.adj, (ap + an, ap - an)):
        assert np.array_equal(op.toarray(), dense)
        assert np.array_equal(op.T.toarray(), dense.T)


# ------------------------------------------------------- channel-walk threads


def use_cpus(monkeypatch, count):
    """Make the walk dispatch see `count` usable CPUs."""
    monkeypatch.setattr(diffusion_module, "_usable_cpus", lambda: count)


def test_usable_cpus_follows_affinity_then_cpu_count(monkeypatch):
    monkeypatch.setattr(diffusion_module.os, "sched_getaffinity", lambda pid: {0, 3, 5},
                        raising=False)
    assert diffusion_module._usable_cpus() == 3
    monkeypatch.delattr(diffusion_module.os, "sched_getaffinity")
    monkeypatch.setattr(diffusion_module.os, "cpu_count", lambda: 4)
    assert diffusion_module._usable_cpus() == 4
    monkeypatch.setattr(diffusion_module.os, "cpu_count", lambda: None)
    assert diffusion_module._usable_cpus() == 1


@pytest.mark.parametrize("cpus, on_worker", [(1, False), (2, True), (8, True)])
def test_difference_walk_runs_on_a_worker_only_with_two_cpus(monkeypatch, cpus, on_worker):
    use_cpus(monkeypatch, cpus)
    threads = []
    last = diffusion_module._last

    def recording_last(walk):
        threads.append(threading.get_ident())
        return last(walk)

    monkeypatch.setattr(diffusion_module, "_last", recording_last)
    na = toy_na(-1)
    diffuse(na, H_TOY, zero_cfg(0.5, 3))
    adjoint(na, H_TOY, H_TOY, zero_cfg(0.5, 3))
    caller = threading.get_ident()
    # One walk of each call runs here; the other runs here only on one CPU.
    assert sorted(t != caller for t in threads) == sorted([False, on_worker] * 2)


@pytest.mark.parametrize("graph", sorted(EQUIVALENCE_GRAPHS))
@pytest.mark.parametrize("m0_mode", START_MODES)
@pytest.mark.parametrize("k", [1, 7])
def test_threaded_and_inline_walks_are_bitwise_equal(monkeypatch, graph, m0_mode, k):
    na = normalize(EQUIVALENCE_GRAPHS[graph]())
    rng = np.random.default_rng(k)
    h = rng.standard_normal((na.n, 4))
    gp, gm = rng.standard_normal(h.shape), rng.standard_normal(h.shape)
    cfg = start_cfg(m0_mode, 0.3, k)

    def outputs(cpus):
        use_cpus(monkeypatch, cpus)
        p, m = diffuse(na, h, cfg, rng=start_rng(m0_mode, h.shape))
        return p, m, adjoint(na, gp, gm, cfg)

    for threaded, inline in zip(outputs(2), outputs(1)):
        assert np.array_equal(threaded, inline)


@pytest.mark.parametrize("graph", sorted(EQUIVALENCE_GRAPHS))
@pytest.mark.parametrize("m0_mode", ["uniform", "redrawn"])
@pytest.mark.parametrize("k", [1, 7])
@pytest.mark.parametrize("c", [0.15, 0.55])
def test_noise_state_equals_the_diffusion_of_zero_features(graph, m0_mode, k, c):
    na = normalize(EQUIVALENCE_GRAPHS[graph]())
    shape = (na.n, 4)
    cfg = start_cfg(m0_mode, c, k)
    rng, rng_ref = start_rng(m0_mode, shape), start_rng(m0_mode, shape)
    noise = diffusion_module._noise_state(na, shape, cfg, rng)
    reference = diffuse(na, np.zeros(shape), cfg, rng=rng_ref)
    assert noise.p.tobytes() == reference.p.tobytes()
    assert noise.m.tobytes() == reference.m.tobytes()
    assert rng.random() == rng_ref.random()  # one draw of the same shape


BITWISE_GRAPHS = {
    "random": lambda: random_signed_graph(300, avg_out_degree=5.0, neg_fraction=0.3, seed=17),
    "deadends": EQUIVALENCE_GRAPHS["deadends"],
    "edgeless": EQUIVALENCE_GRAPHS["empty"],
}


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("graph", sorted(BITWISE_GRAPHS))
@pytest.mark.parametrize("m0_mode", START_MODES)
@pytest.mark.parametrize("k", [1, 10])
@pytest.mark.parametrize("c", [0.15, 0.55])
@pytest.mark.parametrize("signed_zero_rows", [False, True])
def test_walks_are_bitwise_equal_to_stored_transpose_layout(
    monkeypatch, cpus, graph, m0_mode, k, c, signed_zero_rows
):
    use_cpus(monkeypatch, cpus)
    g = BITWISE_GRAPHS[graph]()
    na = normalize(g)
    rng = np.random.default_rng(k)
    h = rng.standard_normal((na.n, 4))
    gp, gm = rng.standard_normal(h.shape), rng.standard_normal(h.shape)
    if signed_zero_rows:
        # Zero mode starts both walks from h itself, where the reference
        # starts from h + 0 and h - 0; rows of -0.0 must not tell them apart.
        h[::3], h[1::5] = -0.0, 0.0
    m0 = start_m0(m0_mode, h.shape)
    cfg = start_cfg(m0_mode, c, k)
    reference = stored_layout_diffusion_states(g, h, c, k, m0)
    final = diffuse(na, h, cfg, rng=start_rng(m0_mode, h.shape))
    assert final.p.tobytes() == reference[-1][0].tobytes()
    assert final.m.tobytes() == reference[-1][1].tobytes()
    steps = list(diffusion_steps(na, h, cfg, rng=start_rng(m0_mode, h.shape)))
    assert len(steps) == len(reference)
    for state, (p, m) in zip(steps, reference):
        assert state.p.tobytes() == p.tobytes() and state.m.tobytes() == m.tobytes()
    assert np.array_equal(
        adjoint(na, gp, gm, cfg), stored_layout_diffuse_adjoint(g, gp, gm, c, k)
    )


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("graph", sorted(BITWISE_GRAPHS))
@pytest.mark.parametrize("d", [1, 7, 8, 9, 13, 32])
def test_adjoint_is_bitwise_the_column_by_column_adjoint(monkeypatch, cpus, graph, d):
    # The adjoint walks its channels in column blocks; each column must come
    # out as it does when its pair [g_p[:, j] || g_m[:, j]] is walked alone.
    use_cpus(monkeypatch, cpus)
    na = normalize(BITWISE_GRAPHS[graph]())
    cfg = DiffusionConfig(0.55, 10)
    g = np.random.default_rng(d).standard_normal((na.n, 2 * d))
    columns = [diffusion_module._adjoint(na, [g[:, [j, d + j]]], cfg) for j in range(d)]
    got = diffusion_module._adjoint(na, [g], cfg)
    assert got.tobytes() == np.hstack(columns).tobytes()


def test_sum_and_difference_share_int32_indices():
    na = normalize(BITWISE_GRAPHS["random"]())
    s, d = na.adj
    for name in ("indices", "indptr"):
        assert getattr(s, name).dtype == np.int32
        assert np.shares_memory(getattr(s, name), getattr(d, name))
    z0 = np.ones((na.n, 2))
    cfg = DiffusionConfig(c=0.5, k_steps=1)
    for op in (s, d, s.T, d.T):
        walk = diffusion_module._restart_walk(op, z0, z0, cfg)
        next(walk)
        scaled = walk.gi_frame.f_locals["op"]
        assert type(scaled) is type(op)
        assert np.shares_memory(scaled.indices, s.indices)
        assert np.shares_memory(scaled.indptr, s.indptr)
        assert not np.shares_memory(scaled.data, op.data)
        assert np.array_equal(scaled.data, op.data * 0.5)


@pytest.mark.parametrize("inject", ["array", "none"])
def test_restart_walk_frees_its_start_after_the_first_product(inject):
    # The walk's frame owns its start: rebinding `z` at the first step drops
    # the only reference a caller that kept none leaves behind.
    na = normalize(BITWISE_GRAPHS["random"]())
    rng = np.random.default_rng(3)
    z0 = rng.standard_normal((na.n, 2))
    ref = weakref.ref(z0)
    add = rng.standard_normal(z0.shape) if inject == "array" else None
    walk = diffusion_module._restart_walk(na.adj[0].T, z0, add, DiffusionConfig(0.3, 3))
    del z0
    assert ref() is not None
    next(walk)
    assert ref() is None


def test_restart_walk_scales_its_start_into_the_float_inject():
    na = normalize(BITWISE_GRAPHS["random"]())
    z0 = np.random.default_rng(4).standard_normal((na.n, 2))
    scaled = 0.3 * z0
    walk = diffusion_module._restart_walk(na.adj[0], z0, 0.3, DiffusionConfig(0.3, 3))
    next(walk)
    inject = walk.gi_frame.f_locals["inject"]
    assert np.shares_memory(inject, z0)
    assert z0.tobytes() == scaled.tobytes()


def test_adjoint_leaves_a_block_the_caller_keeps_unchanged():
    na = normalize(BITWISE_GRAPHS["random"]())
    g = np.random.default_rng(5).standard_normal((na.n, 6))
    kept = g.copy()
    diffusion_module._adjoint(na, [g], DiffusionConfig(0.3, 3))
    assert g.tobytes() == kept.tobytes()


def test_adjoint_frees_the_block_before_its_walks(monkeypatch):
    na = normalize(BITWISE_GRAPHS["random"]())
    owned = [np.random.default_rng(6).standard_normal((na.n, 6))]
    ref = weakref.ref(owned[0])
    run_walks, alive = diffusion_module._run_walks, []

    def watched(walk_s, walk_d):
        alive.append(ref() is not None)
        return run_walks(walk_s, walk_d)

    monkeypatch.setattr(diffusion_module, "_run_walks", watched)
    diffusion_module._adjoint(na, owned, DiffusionConfig(0.3, 3))
    assert owned == [] and alive == [False]


def test_concurrent_callers_get_identical_results(monkeypatch):
    use_cpus(monkeypatch, 2)
    na = normalize(random_signed_graph(400, avg_out_degree=5.0, neg_fraction=0.3, seed=5))
    h = np.random.default_rng(0).standard_normal((na.n, 6))
    cfg = zero_cfg(0.4, 12)
    expected_p, expected_m = diffuse(na, h, cfg)
    expected_g = adjoint(na, h, 2.0 * h, cfg)
    callers = 3  # each with its own channel worker: more threads than cores
    barrier = threading.Barrier(callers)
    results = [[] for _ in range(callers)]

    def caller(slot):
        barrier.wait()
        for _ in range(10):
            results[slot].append((*diffuse(na, h, cfg), adjoint(na, h, 2.0 * h, cfg)))

    threads = [threading.Thread(target=caller, args=(slot,)) for slot in range(callers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert [len(r) for r in results] == [10] * callers
    for p, m, g in sum(results, []):
        assert np.array_equal(p, expected_p)
        assert np.array_equal(m, expected_m)
        assert np.array_equal(g, expected_g)


class _FailingOperator:
    """Stands in for one channel's operator and its transpose; reading its
    values to scale them raises on the thread that runs that channel's walk."""

    def __init__(self):
        self.thread = None

    @property
    def T(self):
        return self

    @property
    def data(self):
        self.thread = threading.get_ident()
        raise RuntimeError("walk failed")


def test_worker_walk_exception_reraises_in_caller(monkeypatch):
    use_cpus(monkeypatch, 2)
    na = toy_na(+1)
    for run in (
        lambda ops: diffuse(ops, H_TOY, zero_cfg(0.5, 2)),
        lambda ops: adjoint(ops, H_TOY, H_TOY, zero_cfg(0.5, 2)),
    ):
        failing = _FailingOperator()
        with pytest.raises(RuntimeError, match="walk failed"):
            run(SimpleNamespace(n=na.n, adj=(na.adj[0], failing)))
        assert failing.thread not in (None, threading.get_ident())


def _diffuse_in_child(conn, na, h, cfg):
    p, m = diffuse(na, h, cfg)
    conn.send((p, m, adjoint(na, p, m, cfg)))
    conn.close()


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs the fork start method"
)
def test_forked_child_can_diffuse_after_parent(monkeypatch):
    use_cpus(monkeypatch, 2)
    na = normalize(random_signed_graph(200, avg_out_degree=4.0, neg_fraction=0.3, seed=9))
    h = np.random.default_rng(1).standard_normal((na.n, 3))
    cfg = zero_cfg(0.35, 10)
    p, m = diffuse(na, h, cfg)  # the parent has run a worker thread before the fork
    expected = (p, m, adjoint(na, p, m, cfg))

    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_diffuse_in_child, args=(send, na, h, cfg))
    child.start()
    send.close()
    try:
        assert receive.poll(60), "forked child did not finish its diffusion"
        got = receive.recv()
        child.join(60)
        assert child.exitcode == 0
    finally:
        if child.is_alive():
            child.kill()
            child.join()
    for a, b in zip(got, expected):
        assert np.array_equal(a, b)
