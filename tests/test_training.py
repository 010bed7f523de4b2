import importlib
import inspect
import sys
import threading
import weakref

import numpy as np
import pytest

import sgdnet.diffusion
import sgdnet.model
import sgdnet.training
from sgdnet.diffusion import DiffusionConfig
from sgdnet.graph import EdgeList, build_graph, normalize
from sgdnet.model import (
    ForwardCache,
    ModelParams,
    NumericError,
    diffuse_inputs,
    edge_logits,
    init_params,
    load_checkpoint,
    loss_grad_logits,
    model_forward,
    save_checkpoint,
)
from sgdnet.training import (
    Adam,
    TrainConfig,
    TrainingAbort,
    backward,
    forward_loss,
    train,
)
from sgdnet.evaluation import f1_macro, predict_edges

from helpers import assert_precompute_matches_direct_path, exactly, grad_check, reference_adam
from synthetic import planted_partition_graph, random_signed_graph


def zero_cfg(c=0.5, k=3):
    return DiffusionConfig(c=c, k_steps=k, m0_mode="zero")


# ---------------------------------------------------------------- adam


def test_adam_zero_gradient_is_noop():
    params = init_params(3, 2, 1, seed=0)
    before = [w.copy() for _, w in params.named()]
    grads = ModelParams.from_flat(np.zeros_like(params.flat), *params.dims)
    opt = Adam(lr=0.05)
    opt.step(params, grads)
    for (_, w), orig in zip(params.named(), before):
        assert np.array_equal(w, orig)


def test_adam_first_step_magnitude():
    # Bias correction makes the first step lr * g / (|g| + eps) ~= lr.
    params = init_params(1, 1, 1, seed=0)
    grads = ModelParams.from_flat(np.ones_like(params.flat), *params.dims)
    before = [w.copy() for _, w in params.named()]
    opt = Adam(lr=0.01)
    opt.step(params, grads)
    for (_, w), orig in zip(params.named(), before):
        assert np.allclose(orig - w, 0.01 / (1 + 1e-8), atol=1e-10)


def test_adam_trajectories_deterministic():
    def run():
        params = init_params(4, 3, 1, seed=1)
        opt = Adam(lr=0.02)
        rng = np.random.default_rng(0)
        for _ in range(5):
            grads = ModelParams.from_flat(rng.standard_normal(params.flat.size), *params.dims)
            opt.step(params, grads)
        return [w.copy() for _, w in params.named()]

    a, b = run(), run()
    for wa, wb in zip(a, b):
        assert np.array_equal(wa, wb)


def test_adam_matches_the_per_matrix_reference_bitwise():
    # Random gradients with exact zeros and negative zeros, five steps.
    params = init_params(4, 3, 2, seed=2)
    ref_params = params.copy()
    opt, ref_step = Adam(lr=0.03), reference_adam(0.03)
    rng = np.random.default_rng(5)
    for _ in range(5):
        flat = rng.standard_normal(params.flat.size)
        flat[::3], flat[1::7] = 0.0, -0.0
        grads = ModelParams.from_flat(flat, *params.dims)
        opt.step(params, grads)
        ref_step(ref_params, dict(grads.named()))
        assert params.flat.tobytes() == ref_params.flat.tobytes()

    # One step on the gradient that `backward` returns with weight decay.
    g, na, x, params, batch = toy_setup(seed=7)
    ref_params = params.copy()
    _, logits, cache = forward_loss(na, x, params, zero_cfg(), batch, 1e-3)
    grads = backward(cache, batch, loss_grad_logits(logits, batch.sign), 1e-3)
    Adam(lr=0.01).step(params, grads)
    reference_adam(0.01)(ref_params, dict(grads.named()))
    assert params.flat.tobytes() == ref_params.flat.tobytes()


def test_params_are_views_of_their_own_flat_and_copies_share_nothing(tmp_path, monkeypatch):
    def assert_views(params):
        assert all(np.shares_memory(w, params.flat) for _, w in params.named())
        assert sum(w.size for _, w in params.named()) == params.flat.size

    g, na, x, params, batch = toy_setup(seed=3)
    assert_views(params)
    path = tmp_path / "model.sgdn"
    save_checkpoint(path, params, zero_cfg())
    assert_views(load_checkpoint(path)[0])
    _, logits, cache = forward_loss(na, x, params, zero_cfg(), batch, 1e-3)
    grads = backward(cache, batch, loss_grad_logits(logits, batch.sign), 1e-3)
    assert_views(grads)
    assert not np.shares_memory(grads.flat, params.flat)
    copied = params.copy()
    assert_views(copied)
    assert not any(np.shares_memory(w, params.flat) for _, w in copied.named())

    # The last-good parameters a TrainingAbort carries are not the live ones
    # that the Adam steps go on writing.
    stepped = []

    class Recording(Adam):
        def step(self, params, grads):
            stepped.append(params)
            super().step(params, grads)

    monkeypatch.setattr(sgdnet.training, "Adam", Recording)
    g = planted_partition_graph(n=16, seed=1)
    x = np.random.default_rng(1).standard_normal((16, 5))
    cfg = TrainConfig(dim=3, n_layers=1, c=0.4, k_steps=3, lr=1e160,
                      epochs=5, m0_mode="zero", seed=0)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(TrainingAbort) as excinfo:
        train(g, x, cfg)
    assert stepped
    assert not np.shares_memory(excinfo.value.params.flat, stepped[-1].flat)


# ---------------------------------------------------------------- backward


def toy_setup(seed=0, n=6, d0=4, d=3, n_layers=2, k=3, n_extra=0):
    g = random_signed_graph(n, avg_out_degree=3.0, deadend_fraction=0.15, seed=seed)
    na = normalize(g)
    rng = np.random.default_rng(seed + 100)
    x = rng.standard_normal((n, d0))
    params = init_params(d0, d, n_layers, seed=seed)
    return g, na, x, params, g.edges


def test_backward_zero_loss_leaves_only_regularization():
    g, na, x, params, batch = toy_setup(seed=3)
    cfg = zero_cfg()
    lam = 0.001
    # Saturate the head so every edge is confidently correct: gradient of the
    # data term collapses, leaving 2 * lam * w.
    h_final, cache = model_forward(na, x, params, cfg)
    logits = edge_logits(h_final, batch, params.w_head) * 0.0
    logits[np.arange(len(batch)), (batch.sign < 0).astype(int)] = 50.0
    grads = backward(cache, batch, loss_grad_logits(logits, batch.sign), weight_decay=lam)
    grads = dict(grads.named())
    for name, w in params.named():
        if name == "w_head":
            # The head still sees the (tiny) softmax slack through z.
            assert np.abs(grads[name] - 2 * lam * w).max() < 1e-8
        elif name == "w_in" or "w_t" in name or "w_n" in name:
            assert np.abs(grads[name] - 2 * lam * w).max() < 1e-8


def test_backward_rejects_a_non_finite_gradient():
    g, na, x, params, batch = toy_setup(seed=3)
    _, cache = model_forward(na, x, params, zero_cfg())
    grad_logits = np.zeros((len(batch), 2))
    grad_logits[0, 0] = np.nan
    with pytest.raises(NumericError, match=exactly("non-finite gradient for w_head")):
        backward(cache, batch, grad_logits, weight_decay=0.0)


def test_backward_head_matches_concatenation_reference():
    # Repeated pairs, u == v pairs, and nodes 7 and 8 in no edge.
    uv = np.array([(0, 1), (0, 1), (2, 2), (1, 0), (3, 0), (0, 3), (5, 5), (6, 2), (0, 0), (4, 6)])
    batch = EdgeList(uv[:, 0], uv[:, 1], np.ones(len(uv)))
    n, d = 9, 4
    rng = np.random.default_rng(13)
    w_in = rng.standard_normal((n, d))
    w_head = rng.standard_normal((2 * d, 2))
    grad_logits = rng.standard_normal((len(uv), 2))

    # One layer with zero transform and mixing weights, on identity input
    # features: h_final = tanh(w_in), and the w_in gradient is
    # d(loss)/d(h_final) times tanh's derivative 1 - h_final^2.
    params = init_params(n, d, 1)
    params.flat[:] = 0.0
    params.w_in[:], params.w_head[:] = w_in, w_head
    na = normalize(build_graph(batch, n))
    h, cache = model_forward(na, np.eye(n), params, zero_cfg())
    assert np.array_equal(h, np.tanh(w_in))

    z = np.hstack([h[uv[:, 0]], h[uv[:, 1]]])
    ref_w_head = z.T @ grad_logits
    dz = grad_logits @ w_head.T
    ref_dh = np.zeros_like(h)
    np.add.at(ref_dh, uv[:, 0], dz[:, :d])
    np.add.at(ref_dh, uv[:, 1], dz[:, d:])

    grads = dict(backward(cache, batch, grad_logits).named())
    for got, ref in ((grads["w_head"], ref_w_head), (grads["w_in"], (1.0 - h * h) * ref_dh)):
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
    assert np.all(grads["w_in"][7:] == 0.0)


def test_data_gradient_shrinks_as_correct_margins_double():
    g, na, x, params, batch = toy_setup(seed=4)
    cfg = zero_cfg()
    correct = np.zeros((len(batch), 2))
    correct[np.arange(len(batch)), (batch.sign < 0).astype(int)] = 1.0
    norms = []
    for margin in (1.0, 2.0, 4.0, 8.0):
        _, cache = model_forward(na, x, params, cfg)  # backward spends its cache
        logits = margin * (2 * correct - 1)  # +margin for the true sign
        grads = backward(cache, batch, loss_grad_logits(logits, batch.sign), weight_decay=0.0)
        norms.append(np.sqrt(sum(float((g_ * g_).sum()) for _, g_ in grads.named())))
    assert all(a > b for a, b in zip(norms, norms[1:]))


def test_channel_mixing_gradient_equals_the_stacked_channels_bytewise():
    g, na, x, params, batch = toy_setup(seed=8, n=40, n_layers=1)
    d = params.w_in.shape[1]
    _, logits, cache = forward_loss(na, x, params, zero_cfg(), batch, 0.0)
    h_prev, pm, h_next = cache.layers[0]
    p, m = pm[:, :d].copy(), pm[:, d:].copy()
    grad_logits = loss_grad_logits(logits, batch.sign)
    # The top layer's dpre, formed as `backward` forms it.
    g_u = sgdnet.training._scatter_to_nodes(batch.src, grad_logits, g.n)
    g_v = sgdnet.training._scatter_to_nodes(batch.dst, grad_logits, g.n)
    dpre = (1.0 - h_next * h_next) * (g_u @ params.w_head[:d].T + g_v @ params.w_head[d:].T)
    del h_prev, pm, h_next
    grads = dict(backward(cache, batch, grad_logits).named())
    assert grads["layers.0.w_n"].tobytes() == (np.hstack([p, m]).T @ dpre).tobytes()


@pytest.mark.parametrize("precomputed", (False, True))
def test_forward_loss_and_backward_make_no_hstack(monkeypatch, precomputed):
    g, na, x, params, batch = toy_setup(seed=9, n=30)
    cfg = DiffusionConfig(c=0.5, k_steps=3, m0_mode="uniform")
    x_diffused = diffuse_inputs(na, x, cfg) if precomputed else None
    real, calls = np.hstack, []

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "hstack", counted)
    _, logits, cache = forward_loss(na, x, params, cfg, batch, 0.0,
                                    rng=np.random.default_rng(0), x_diffused=x_diffused)
    backward(cache, batch, loss_grad_logits(logits, batch.sign))
    assert calls == []


# ---------------------------------------------------------------- cache release


def test_backward_frees_each_layer_before_its_adjoint(monkeypatch):
    g, na, x, params, batch = toy_setup(seed=5)
    cfg = zero_cfg()
    _, logits, cache = forward_loss(na, x, params, cfg, batch, 0.0)
    refs = [[weakref.ref(a) for a in (lc.pm, lc.h_next)] for lc in cache.layers]
    adjoint = sgdnet.diffusion._adjoint
    alive = []  # per adjoint call, top layer first: are pm and h_next alive?

    def watched(*args, **kwargs):
        layer = len(refs) - 1 - len(alive)
        alive.append([ref() is not None for ref in refs[layer]])
        return adjoint(*args, **kwargs)

    monkeypatch.setattr(sgdnet.diffusion, "_adjoint", watched)
    backward(cache, batch, loss_grad_logits(logits, batch.sign))
    assert alive == [[False] * 2, [False] * 2]
    assert cache.layers == []


def test_backward_frees_dpm_before_the_adjoint_walks(monkeypatch):
    # dpm, the n x 2d gradient [dp || dm] of the layer's channel block,
    # reaches the adjoint only in the list it empties; once the start sums
    # exist nothing holds it.
    g, na, x, params, batch = toy_setup(seed=5)
    cfg = zero_cfg()
    _, logits, cache = forward_loss(na, x, params, cfg, batch, 0.0)
    adjoint, run_walks = sgdnet.diffusion._adjoint, sgdnet.diffusion._run_walks
    refs, alive = [], []  # alive: is dpm alive at the adjoint's entry, at its walks?

    def watched_adjoint(na, grads, cfg):
        refs.append(weakref.ref(grads[0]))
        alive.append([refs[-1]() is not None])
        return adjoint(na, grads, cfg)

    def watched_walks(walk_s, walk_d):
        alive[-1].append(refs[-1]() is not None)
        return run_walks(walk_s, walk_d)

    monkeypatch.setattr(sgdnet.diffusion, "_adjoint", watched_adjoint)
    monkeypatch.setattr(sgdnet.diffusion, "_run_walks", watched_walks)
    backward(cache, batch, loss_grad_logits(logits, batch.sign))
    assert alive == [[True, False], [True, False]]


def test_second_backward_on_a_spent_cache_raises():
    g, na, x, params, batch = toy_setup(seed=6)
    cfg = zero_cfg()
    _, logits, cache = forward_loss(na, x, params, cfg, batch, 0.0)
    grad_logits = loss_grad_logits(logits, batch.sign)
    backward(cache, batch, grad_logits)
    with pytest.raises(ValueError, match="run forward_loss again"):
        backward(cache, batch, grad_logits)


@pytest.mark.parametrize("seed", range(3))
def test_grad_check_passes(seed):
    report = grad_check(seed=seed)
    assert report.passed, str(report)


def test_grad_check_reports_all_parameters():
    report = grad_check(seed=0, n_layers=2)
    names = set(report.per_param)
    assert names == {"w_in", "layers.0.w_t", "layers.0.w_n",
                     "layers.1.w_t", "layers.1.w_n", "w_head"}


def test_grad_check_detects_corrupted_adjoint(monkeypatch):
    real = sgdnet.diffusion._adjoint

    def flipped(na, grads, cfg):
        return -real(na, grads, cfg)

    monkeypatch.setattr(sgdnet.diffusion, "_adjoint", flipped)
    report = grad_check(seed=0)
    assert not report.passed
    assert report.max_error > 1e-1


def test_grad_check_detects_corrupted_precomputed_gradient(monkeypatch):
    # The forward pass keeps the true precomputed state; the backward pass
    # reads its p and m rows swapped, so only layer 1's gradients are wrong.
    real = sgdnet.training.backward

    def swapped(cache, *args, **kwargs):
        if cache.x_diffused is not None:
            rows = cache.x_diffused.reshape(-1, 2, cache.x_diffused.shape[1])
            cache = cache._replace(x_diffused=rows[:, ::-1].reshape(cache.x_diffused.shape))
        return real(cache, *args, **kwargs)

    monkeypatch.setattr(sgdnet.training, "backward", swapped)
    report = grad_check(seed=0)
    assert not report.passed
    assert report.per_param["layers.1.w_t"] < report.tolerance
    assert report.per_param["layers.0.w_t"] > 1e-1


def test_grad_check_with_and_without_weight_decay():
    assert grad_check(seed=1, weight_decay=0.0).passed
    assert grad_check(seed=1, weight_decay=0.01).passed


def test_grad_check_rejects_large_n():
    with pytest.raises(ValueError):
        grad_check(seed=0, n=50)


# ---------------------------------------------------------------- training


def test_train_lr_zero_keeps_params():
    from sgdnet.seeding import spawn_seeds

    g, na, x, params, batch = toy_setup(seed=5)
    cfg = TrainConfig(dim=3, n_layers=1, c=0.5, k_steps=2, lr=0.0,
                      epochs=4, m0_mode="zero", seed=7)
    trained, history = train(g, x, cfg)
    init_seed, _ = spawn_seeds(7, 2)
    reference = init_params(x.shape[1], 3, 1, seed=init_seed)
    for (_, wa), (_, wb) in zip(trained.named(), reference.named()):
        assert np.array_equal(wa, wb)
    assert len(history) == 4
    assert np.allclose(history, history[0])


def test_train_loss_decreases():
    g = planted_partition_graph(n=20, seed=0)
    x = np.random.default_rng(0).standard_normal((20, 6))
    cfg = TrainConfig(dim=4, n_layers=1, c=0.35, k_steps=4, lr=0.01,
                      epochs=30, m0_mode="zero", seed=0)
    _, history = train(g, x, cfg)
    assert history[-1] < history[0]


def test_train_deterministic_given_seed():
    g = planted_partition_graph(n=16, seed=1)
    x = np.random.default_rng(1).standard_normal((16, 5))
    cfg = TrainConfig(dim=3, n_layers=2, c=0.4, k_steps=3, lr=0.02,
                      epochs=10, m0_mode="uniform", seed=11)
    params_a, hist_a = train(g, x, cfg)
    params_b, hist_b = train(g, x, cfg)
    assert hist_a == hist_b
    for (_, wa), (_, wb) in zip(params_a.named(), params_b.named()):
        assert np.array_equal(wa, wb)


def test_train_planted_partition_reaches_high_f1():
    from sgdnet.features import init_features

    g = planted_partition_graph(n=40, seed=2)
    x = init_features(g, rank=16, seed=2)
    cfg = TrainConfig(dim=16, n_layers=1, c=0.35, k_steps=10, lr=0.01,
                      epochs=100, m0_mode="uniform", seed=2)
    params, _ = train(g, x, cfg)
    _, preds = predict_edges(g, x, params, cfg.diffusion(), g.edges)
    assert f1_macro(preds, g.edges.sign) >= 0.95


def test_train_numeric_blowup_aborts_with_last_good_params():
    from sgdnet.training import TrainingAbort

    g = planted_partition_graph(n=16, seed=1)
    x = np.random.default_rng(1).standard_normal((16, 5))
    cfg = TrainConfig(dim=3, n_layers=1, c=0.4, k_steps=3, lr=1e160,
                      epochs=5, m0_mode="zero", seed=0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingAbort) as excinfo:
            train(g, x, cfg)
    abort = excinfo.value
    assert len(abort.history) >= 1
    for _, w in abort.params.named():
        assert np.all(np.isfinite(w))


def test_train_abort_keeps_the_params_of_the_last_finite_loss():
    # The aborted run's params are those the last finite loss was computed
    # at: the params after len(history) - 1 steps, not the ones the next
    # optimizer step wrote in place.
    g = planted_partition_graph(n=16, seed=1)
    x = np.random.default_rng(1).standard_normal((16, 5))
    cfg = TrainConfig(dim=3, n_layers=1, c=0.4, k_steps=3, lr=1e160,
                      epochs=5, m0_mode="zero", seed=0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingAbort) as excinfo:
            train(g, x, cfg)
        cfg.epochs = len(excinfo.value.history) - 1
        params, _ = train(g, x, cfg)
    for (_, kept), (_, expected) in zip(excinfo.value.params.named(), params.named()):
        assert np.array_equal(kept, expected)


@pytest.mark.parametrize("epoch", (0, 3))
def test_train_step_that_overflows_on_the_last_epoch_aborts_with_the_pre_step_params(
    monkeypatch, epoch
):
    # Step `epoch`, the last, runs at a learning rate at which lr * m_hat
    # overflows. No later loss sees the non-finite parameters, so the check
    # after the step must catch them and keep those the step started from.
    class Overflowing(Adam):
        def step(self, params, grads):
            if self.t == epoch:
                self.lr = 1e308
            super().step(params, grads)

    monkeypatch.setattr(sgdnet.training, "Adam", Overflowing)
    g = planted_partition_graph(n=16, seed=1)
    x = np.random.default_rng(1).standard_normal((16, 5))
    cfg = TrainConfig(dim=3, n_layers=1, c=0.4, k_steps=3, weight_decay=1000.0,
                      epochs=epoch, m0_mode="zero", seed=0)
    before, history = train(g, x, cfg)
    cfg.epochs = epoch + 1
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(TrainingAbort) as excinfo:
        train(g, x, cfg)
    abort = excinfo.value
    assert f"epoch {epoch}:" in str(abort)
    assert len(abort.history) == epoch + 1 and abort.history[:epoch] == history
    for (_, kept), (_, expected) in zip(abort.params.named(), before.named()):
        assert np.array_equal(kept, expected)


def test_train_monotone_after_transient():
    g = planted_partition_graph(n=24, seed=3)
    x = np.random.default_rng(3).standard_normal((24, 8))
    cfg = TrainConfig(dim=6, n_layers=1, c=0.35, k_steps=5, lr=0.01,
                      epochs=60, m0_mode="zero", seed=3)
    _, history = train(g, x, cfg)
    tail = np.array(history[10:])
    assert np.all(np.diff(tail) <= 1e-6)


# Loss histories of 20 epochs on a fixed random graph, recorded with the
# per-sign four-product diffusion and the concatenated-endpoint head. The
# sum/difference diffusion and the factored head must reproduce them.
GOLDEN_HISTORIES = {
    (1, "uniform"): [
        0.6911807338708971, 0.6836844002685543, 0.6771721845369875, 0.6716330238780936,
        0.6668327548473357, 0.6627444353036703, 0.6592717059596385, 0.6563863716613973,
        0.654025090645008, 0.652098650449016, 0.650484040100741, 0.6489299110077427,
        0.6472549633379999, 0.6452974502776231, 0.64308016033235, 0.6405288859153605,
        0.6378247917335995, 0.6350793127894532, 0.6323056128523565, 0.6295700034588261,
    ],
    (2, "zero"): [
        0.6988716422317431, 0.6915283130401699, 0.6847235011623399, 0.6782695753975643,
        0.6720209211918508, 0.6658835726276721, 0.6599214843235094, 0.6543156529333638,
        0.6492871482097806, 0.6450185089706245, 0.6415611093483173, 0.6387026675582216,
        0.6359913612899313, 0.633000679328157, 0.6295322857141622, 0.6256218764874222,
        0.6214580149593898, 0.617285494909257, 0.6133195640939418, 0.6096830774661428,
    ],
}


@pytest.mark.parametrize("n_layers, m0_mode", sorted(GOLDEN_HISTORIES))
def test_train_matches_golden_loss_history(n_layers, m0_mode):
    g = random_signed_graph(60, avg_out_degree=4.0, neg_fraction=0.3,
                            deadend_fraction=0.1, seed=3)
    x = np.random.default_rng(4).standard_normal((60, 8))
    c = 0.35 if n_layers == 1 else 0.55
    cfg = TrainConfig(dim=6, n_layers=n_layers, c=c, k_steps=10, epochs=20,
                      m0_mode=m0_mode, seed=5)
    _, history = train(g, x, cfg)
    np.testing.assert_allclose(history, GOLDEN_HISTORIES[(n_layers, m0_mode)],
                               rtol=1e-10, atol=0.0)


# ---------------------------------------------------------------- layer-1 precompute

PRECOMPUTE_GRAPHS = {
    "random": lambda: random_signed_graph(25, avg_out_degree=3.0, neg_fraction=0.3, seed=8),
    "deadends": lambda: random_signed_graph(
        30, avg_out_degree=3.0, neg_fraction=0.4, deadend_fraction=0.3, seed=41
    ),
    "edgeless": lambda: build_graph([], 12),
}


@pytest.mark.parametrize("m0_mode", ("zero", "uniform"))
@pytest.mark.parametrize("n_layers", (1, 2))
@pytest.mark.parametrize("graph_name", sorted(PRECOMPUTE_GRAPHS))
def test_precomputed_first_layer_matches_direct_path(graph_name, n_layers, m0_mode):
    g = PRECOMPUTE_GRAPHS[graph_name]()
    na = normalize(g)
    rng = np.random.default_rng(9)
    x = rng.standard_normal((g.n, 7))
    uv = rng.integers(0, g.n, size=(40, 2))
    batch = EdgeList(uv[:, 0], uv[:, 1], rng.choice(np.array([-1, 1]), size=40))
    params = init_params(7, 5, n_layers, seed=2)
    cfg = DiffusionConfig(c=0.4, k_steps=6, m0_mode=m0_mode)
    assert_precompute_matches_direct_path(na, x, params, cfg, batch)


def count_diffusions(monkeypatch):
    """Record the column count of every diffusion (`_diffuse`, which the
    public `diffuse` and the model's layers call) and of every layer-1 noise
    diffusion (`_noise_state`, which may run on a worker thread), and count
    adjoint calls (`_adjoint`, which `backward` calls)."""
    real_diffuse = sgdnet.diffusion._diffuse
    real_noise = sgdnet.diffusion._noise_state
    real_adjoint = sgdnet.diffusion._adjoint
    calls = {"diffuse": [], "noise": [], "adjoint": 0}

    def diffuse(na, owned, cfg, *args, **kwargs):
        calls["diffuse"].append(owned[0].shape[1])
        return real_diffuse(na, owned, cfg, *args, **kwargs)

    def noise(na, shape, cfg, rng):
        calls["noise"].append(shape[1])
        return real_noise(na, shape, cfg, rng)

    def adjoint(*args, **kwargs):
        calls["adjoint"] += 1
        return real_adjoint(*args, **kwargs)

    monkeypatch.setattr(sgdnet.diffusion, "_diffuse", diffuse)
    monkeypatch.setattr(sgdnet.diffusion, "_noise_state", noise)
    monkeypatch.setattr(sgdnet.diffusion, "_adjoint", adjoint)
    return calls


# d0 = 12 and d = 3: an epoch saves 3 columns in uniform mode, 6 in zero mode.
@pytest.mark.parametrize("m0_mode, epochs, precomputed", [
    ("uniform", 3, False), ("uniform", 4, True), ("zero", 1, False), ("zero", 2, True),
])
def test_train_precomputes_at_or_above_the_cost_rule(monkeypatch, m0_mode, epochs, precomputed):
    g = planted_partition_graph(n=16, seed=1)
    x = np.random.default_rng(1).standard_normal((16, 12))
    cfg = TrainConfig(dim=3, n_layers=1, c=0.4, k_steps=3, epochs=epochs,
                      m0_mode=m0_mode, seed=0)
    calls = count_diffusions(monkeypatch)
    train(g, x, cfg)
    per_epoch = 1 if m0_mode == "uniform" else 0
    if precomputed:
        # One input diffusion; each epoch's noise goes through `_noise_state`.
        assert calls["diffuse"] == [12]
        assert calls["noise"] == [3] * (per_epoch * epochs)
        assert calls["adjoint"] == 0
    else:
        assert calls["diffuse"] == [3] * epochs
        assert calls["noise"] == []
        assert calls["adjoint"] == epochs


@pytest.mark.parametrize("m0_mode", ("zero", "uniform"))
def test_train_history_is_the_same_on_both_sides_of_the_cost_rule(m0_mode):
    # d0 = 30 and d = 3: 4 epochs fall below the rule in both modes, 10 above.
    g = planted_partition_graph(n=16, seed=1)
    x = np.random.default_rng(1).standard_normal((16, 30))

    def history(epochs):
        cfg = TrainConfig(dim=3, n_layers=2, c=0.4, k_steps=3, epochs=epochs,
                          m0_mode=m0_mode, seed=0)
        return train(g, x, cfg)[1]

    np.testing.assert_allclose(history(10)[:4], history(4), rtol=1e-10, atol=0.0)


@pytest.mark.parametrize("bad", (np.nan, np.inf))
def test_train_nonfinite_features_abort_on_the_precompute_side(bad):
    g = planted_partition_graph(n=16, seed=1)
    x = np.random.default_rng(1).standard_normal((16, 5))
    x[3, 2] = bad
    cfg = TrainConfig(dim=3, n_layers=1, epochs=10, m0_mode="zero", seed=0)
    with np.errstate(invalid="ignore"), pytest.raises(TrainingAbort) as excinfo:
        train(g, x, cfg)
    assert excinfo.value.history == []


@pytest.mark.parametrize("name", ("w_in", "layers.0.w_t"))
def test_precomputed_first_layer_rejects_nonfinite_weights(name):
    g = planted_partition_graph(n=16, seed=1)
    na = normalize(g)
    x = np.random.default_rng(1).standard_normal((16, 5))
    params = init_params(5, 3, 1, seed=0)
    dict(params.named())[name][0, 1] = np.inf
    cfg = zero_cfg()
    with np.errstate(invalid="ignore"), pytest.raises(NumericError):
        forward_loss(na, x, params, cfg, g.edges, 0.0,
                     x_diffused=diffuse_inputs(na, x, cfg))


# ---------------------------------------------------------------- layer-1 noise feed

# d0 = 12 and d = 3: 1 epoch is below the precompute rule in both modes, 6 above.
FEED_X = np.random.default_rng(6).standard_normal((30, 12))


def feed_cfg(n_layers, m0_mode, epochs):
    return TrainConfig(dim=3, n_layers=n_layers, c=0.4, k_steps=4, epochs=epochs,
                       m0_mode=m0_mode, seed=2)


def use_cpus(monkeypatch, count):
    monkeypatch.setattr(sgdnet.diffusion, "_usable_cpus", lambda: count)


@pytest.mark.parametrize("epochs", (1, 6))
@pytest.mark.parametrize("m0_mode", ("zero", "uniform"))
@pytest.mark.parametrize("n_layers", (1, 2, 3))
def test_train_is_bitwise_equal_on_one_and_two_cpus(monkeypatch, n_layers, m0_mode, epochs):
    g = PRECOMPUTE_GRAPHS["deadends"]()
    cfg = feed_cfg(n_layers, m0_mode, epochs)

    def run(cpus):
        use_cpus(monkeypatch, cpus)
        return train(g, FEED_X, cfg)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so a draw out of order shows
    try:
        (params1, history1), (params2, history2) = run(1), run(2)
    finally:
        sys.setswitchinterval(interval)
    assert np.array(history1).tobytes() == np.array(history2).tobytes()
    for (name, w1), (_, w2) in zip(params1.named(), params2.named()):
        assert w1.tobytes() == w2.tobytes(), name


SGDNET_MODULES = ("graph", "features", "diffusion", "model", "training", "evaluation")


def record_threads(monkeypatch):
    """Wrap every public function and method of the sgdnet modules, under
    every sgdnet name that refers to it, so that each call records its
    name and thread; `_noise_state` is recorded too. Returns the records."""
    calls = []

    def recorded(name, fn):
        def wrapper(*args, **kwargs):
            calls.append((name, threading.get_ident()))
            return fn(*args, **kwargs)
        return wrapper

    wrappers = {}
    for short in SGDNET_MODULES:
        mod = importlib.import_module(f"sgdnet.{short}")
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                wrappers[id(obj)] = recorded(f"{short}.{attr}", obj)
            elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                for name, raw in list(vars(obj).items()):
                    if not name.startswith("_") and inspect.isfunction(raw):
                        monkeypatch.setattr(obj, name, recorded(f"{short}.{attr}.{name}", raw))
    for mod_name, mod in list(sys.modules.items()):
        if mod is not None and mod_name.startswith("sgdnet"):
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    monkeypatch.setattr(mod, attr, wrappers[id(obj)])
    monkeypatch.setattr(sgdnet.diffusion, "_noise_state",
                        recorded("diffusion._noise_state", sgdnet.diffusion._noise_state))
    return calls


@pytest.mark.parametrize("n_layers", (1, 2))
def test_train_runs_every_public_function_on_the_calling_thread(monkeypatch, n_layers):
    use_cpus(monkeypatch, 2)
    g = PRECOMPUTE_GRAPHS["deadends"]()
    calls = record_threads(monkeypatch)
    sgdnet.training.train(g, FEED_X, feed_cfg(n_layers, "uniform", 6))
    caller = threading.get_ident()
    public = {(name, ident == caller) for name, ident in calls if "._" not in name}
    assert ("training.train", True) in public and ("diffusion.diffuse", True) in public
    assert all(on_caller for _, on_caller in public), sorted(public)
    noise = [ident == caller for name, ident in calls if name == "diffusion._noise_state"]
    assert len(noise) == 6 and not any(noise)  # the feed did run on its worker


def failing_noise(monkeypatch, on_call):
    """Make the `on_call`-th noise diffusion raise."""
    real = sgdnet.diffusion._noise_state
    count = []

    def noise(*args):
        count.append(1)
        if len(count) == on_call:
            raise RuntimeError("noise task failed")
        return real(*args)

    monkeypatch.setattr(sgdnet.diffusion, "_noise_state", noise)


@pytest.mark.parametrize("n_layers", (1, 2))
def test_train_reraises_a_failure_of_the_worker_task(monkeypatch, n_layers):
    use_cpus(monkeypatch, 2)
    failing_noise(monkeypatch, on_call=3)
    with pytest.raises(RuntimeError, match="noise task failed"):
        train(PRECOMPUTE_GRAPHS["deadends"](), FEED_X, feed_cfg(n_layers, "uniform", 6))


@pytest.mark.parametrize("outcome", ("return", "abort", "raise", "raise before the loop"))
def test_train_leaves_no_thread_behind(monkeypatch, outcome):
    use_cpus(monkeypatch, 2)
    if outcome == "raise before the loop":
        def copy(params):
            raise RuntimeError("copy failed")

        monkeypatch.setattr(ModelParams, "copy", copy)
    elif outcome == "abort":
        real_loss = sgdnet.training.loss_total
        losses = []

        def loss_total(*args, **kwargs):
            losses.append(real_loss(*args, **kwargs))
            return np.nan if len(losses) == 3 else losses[-1]

        monkeypatch.setattr(sgdnet.training, "loss_total", loss_total)
    elif outcome == "raise":
        failing_noise(monkeypatch, on_call=4)
    g = PRECOMPUTE_GRAPHS["deadends"]()
    before = threading.active_count()
    try:
        train(g, FEED_X, feed_cfg(1, "uniform", 6))
    except TrainingAbort as exc:
        assert outcome == "abort" and len(exc.history) == 2
    except RuntimeError:
        assert outcome.startswith("raise")
    else:
        assert outcome == "return"
    assert threading.active_count() == before


@pytest.mark.parametrize("n_layers", (1, 2, 3))
def test_train_draws_the_next_noise_pair_in_rng_order(monkeypatch, n_layers):
    # With one layer the next epoch's draw overlaps this epoch's forward pass;
    # with more it may start only after the forward pass, whose layers 2..L
    # draw from the same rng. A draw submitted before the forward pass starts
    # on the idle worker within the wait below.
    use_cpus(monkeypatch, 2)
    epochs = 4
    started = [threading.Event() for _ in range(epochs + 1)]
    draws = []
    real_noise, real_forward = sgdnet.diffusion._noise_state, sgdnet.training.forward_loss

    def noise(*args):
        started[len(draws)].set()
        draws.append(1)
        return real_noise(*args)

    forwards, seen = [], []

    def forward_loss(*args, **kwargs):
        out = real_forward(*args, **kwargs)
        epoch = len(forwards)
        forwards.append(1)
        if epoch + 1 < epochs:
            seen.append(started[epoch + 1].wait(timeout=5.0 if n_layers == 1 else 0.2))
        return out

    monkeypatch.setattr(sgdnet.diffusion, "_noise_state", noise)
    monkeypatch.setattr(sgdnet.training, "forward_loss", forward_loss)
    train(PRECOMPUTE_GRAPHS["deadends"](), FEED_X, feed_cfg(n_layers, "uniform", epochs))
    assert seen == [n_layers == 1] * (epochs - 1)
    assert len(draws) == epochs


@pytest.mark.parametrize("n_layers", (1, 2))
def test_train_frees_each_noise_pair_before_backward(monkeypatch, n_layers):
    # Layer 1 adds the pair into its block, so the epoch loop must not keep
    # it (or the finished task that returned it) alive through the backward.
    use_cpus(monkeypatch, 2)
    real_noise, real_backward = sgdnet.diffusion._noise_state, sgdnet.training.backward
    pairs, alive = [], []

    def noise(*args):
        pair = real_noise(*args)
        pairs.append((weakref.ref(pair.p), weakref.ref(pair.m)))
        return pair

    def backward(*args, **kwargs):
        alive.append(any(ref() is not None for ref in pairs[len(alive)]))
        return real_backward(*args, **kwargs)

    monkeypatch.setattr(sgdnet.diffusion, "_noise_state", noise)
    monkeypatch.setattr(sgdnet.training, "backward", backward)
    train(PRECOMPUTE_GRAPHS["deadends"](), FEED_X, feed_cfg(n_layers, "uniform", 4))
    assert alive == [False] * 4


class WatchedCache:
    """A `ForwardCache` with the same fields that a weakref can watch (a
    NamedTuple cannot be weakly referenced)."""

    def __init__(self, *fields):
        vars(self).update(zip(ForwardCache._fields, fields))


@pytest.mark.parametrize("cpus", (1, 2))
@pytest.mark.parametrize("epochs", (3, 6))  # below and above the precompute rule
@pytest.mark.parametrize("n_layers", (1, 2))
def test_train_frees_each_forward_cache_before_the_next_forward(
    monkeypatch, n_layers, epochs, cpus
):
    use_cpus(monkeypatch, cpus)
    monkeypatch.setattr(sgdnet.model, "ForwardCache", WatchedCache)
    real_forward = sgdnet.training.forward_loss
    refs, alive = [], []  # alive: at each forward_loss, is any earlier cache alive?

    def forward_loss(*args, **kwargs):
        alive.append(any(ref() is not None for ref in refs))
        out = real_forward(*args, **kwargs)
        refs.append(weakref.ref(out[2]))
        return out

    monkeypatch.setattr(sgdnet.training, "forward_loss", forward_loss)
    train(PRECOMPUTE_GRAPHS["deadends"](), FEED_X, feed_cfg(n_layers, "uniform", epochs))
    assert alive == [False] * epochs
