import re
import struct
import weakref
from dataclasses import replace

import numpy as np
import pytest

import sgdnet.diffusion
import sgdnet.model
from sgdnet.diffusion import DiffusionConfig, _noise_state, diffuse
from sgdnet.graph import EdgeList, SignedEdge, as_edge_list, build_graph, normalize
from sgdnet.model import (
    _HEADER,
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    EdgeBatch,
    diffuse_inputs,
    edge_logits,
    init_params,
    layer_forward,
    load_checkpoint,
    loss_grad_logits,
    loss_total,
    model_forward,
    save_checkpoint,
    softmax,
)

from helpers import reference_loss_grad_logits, reference_loss_total, reference_softmax
from synthetic import random_signed_graph


def zero_cfg(c=0.5, k=2):
    return DiffusionConfig(c=c, k_steps=k, m0_mode="zero")


def zeroed(params):
    for _, w in params.named():
        w[:] = 0.0
    return params


# ---------------------------------------------------------------- init


def test_init_params_shapes():
    params = init_params(128, 32, 1, seed=0)
    assert params.w_in.shape == (128, 32)
    assert len(params.layers) == 1
    assert params.layers[0].w_t.shape == (32, 32)
    assert params.layers[0].w_n.shape == (64, 32)
    assert params.w_head.shape == (64, 2)


def test_init_params_deterministic():
    a = init_params(6, 4, 2, seed=7)
    b = init_params(6, 4, 2, seed=7)
    for (_, wa), (_, wb) in zip(a.named(), b.named()):
        assert np.array_equal(wa, wb)


def test_init_params_fan_in_bound():
    params = init_params(4, 4, 2, seed=3)
    for _, w in params.named():
        assert np.abs(w).max() <= 0.5


def test_init_params_validation():
    with pytest.raises(ValueError):
        init_params(0, 4, 1)
    with pytest.raises(ValueError):
        init_params(4, 4, 0)


# ---------------------------------------------------------------- layers


def test_layer_zero_weights_reduce_to_tanh_skip():
    g = random_signed_graph(10, seed=0)
    na = normalize(g)
    rng = np.random.default_rng(1)
    h_prev = rng.standard_normal((10, 4))
    params = zeroed(init_params(4, 4, 1, seed=0))
    h_next, _ = layer_forward(na, h_prev, params.layers[0], zero_cfg())
    assert np.allclose(h_next, np.tanh(h_prev))


def test_layer_matches_diffusion_oracle_on_toy_graph():
    na = normalize(build_graph([SignedEdge(0, 1, 1)], 2))
    h_prev = np.array([[1.0], [0.0]])
    layer = init_params(1, 1, 1, seed=0).layers[0]
    layer.w_t[:] = 1.0
    layer.w_n[:] = np.array([[1.0], [1.0]])
    cfg = zero_cfg(c=0.5, k=2)
    h_next, cache = layer_forward(na, h_prev, layer, cfg)
    p, m = diffuse(na, h_prev @ layer.w_t, cfg)
    assert np.allclose(p, [[0.5], [0.25]])
    expected = np.tanh(np.hstack([p, m]) @ layer.w_n + h_prev)
    assert np.allclose(h_next, expected)
    assert np.allclose(cache.pm, np.hstack([p, m]))


def test_layer_mixes_its_channel_block_as_the_stacked_channels_bytewise():
    g = random_signed_graph(200, avg_out_degree=4.0, neg_fraction=0.3, seed=8)
    na = normalize(g)
    h_prev = np.random.default_rng(8).standard_normal((na.n, 5))
    layer = init_params(5, 5, 1, seed=8).layers[0]
    cfg = DiffusionConfig(c=0.35, k_steps=6, m0_mode="uniform")
    h_next, cache = layer_forward(na, h_prev, layer, cfg, rng=np.random.default_rng(1))
    p, m = diffuse(na, h_prev @ layer.w_t, cfg, rng=np.random.default_rng(1))
    assert cache.pm.tobytes() == np.hstack([p, m]).tobytes()
    expected = np.tanh(np.hstack([p, m]) @ layer.w_n + h_prev)
    assert h_next.tobytes() == expected.tobytes()


def test_precomputed_first_layer_block_equals_the_stacked_channels_bytewise():
    g = random_signed_graph(200, avg_out_degree=4.0, neg_fraction=0.3, seed=9)
    na = normalize(g)
    x = np.random.default_rng(9).standard_normal((na.n, 7))
    params = init_params(7, 4, 1, seed=9)
    layer = params.layers[0]
    cfg = DiffusionConfig(c=0.35, k_steps=6, m0_mode="uniform")
    x_diffused = diffuse_inputs(na, x, cfg)
    h_final, cache = model_forward(na, x, params, cfg, rng=np.random.default_rng(2),
                                   x_diffused=x_diffused)
    noise = _noise_state(na, (na.n, 4), cfg, np.random.default_rng(2))
    w = params.w_in @ layer.w_t
    x_p, x_m = x_diffused[0::2], x_diffused[1::2]  # rows 2i and 2i + 1
    pm = np.hstack([x_p @ w, x_m @ w]) + np.hstack([noise.p, noise.m])
    assert cache.layers[0].pm.tobytes() == pm.tobytes()
    expected = np.tanh(pm @ layer.w_n + x @ params.w_in)
    assert h_final.tobytes() == expected.tobytes()


@pytest.mark.parametrize("cpus", (1, 2))
@pytest.mark.parametrize("d0", (1, 31, 32, 33, 128))
def test_diffuse_inputs_in_column_blocks_equals_one_whole_diffusion(monkeypatch, d0, cpus):
    # Each output column takes the same sparse products in the same order
    # whichever block it is diffused in.
    monkeypatch.setattr(sgdnet.diffusion, "_usable_cpus", lambda: cpus)
    g = random_signed_graph(150, avg_out_degree=4.0, neg_fraction=0.4, deadend_fraction=0.3,
                            seed=11)
    na = normalize(g)
    x = np.random.default_rng(d0).standard_normal((na.n, d0))
    cfg = DiffusionConfig(c=0.35, k_steps=6, m0_mode="uniform")
    whole = diffuse(na, x, replace(cfg, m0_mode="zero"))
    real, blocks = sgdnet.diffusion.diffuse, []

    def counted(na, h, cfg, rng=None):
        blocks.append(h.shape[1])
        return real(na, h, cfg, rng)

    monkeypatch.setattr(sgdnet.diffusion, "diffuse", counted)
    got = diffuse_inputs(na, x, cfg)
    assert got.shape == (2 * na.n, d0)
    assert got[0::2].tobytes() == whole.p.tobytes() and got[1::2].tobytes() == whole.m.tobytes()
    assert sum(blocks) == d0 and max(blocks) <= 32 and len(blocks) == -(-d0 // 32)


@pytest.mark.parametrize("n_layers", (1, 2))
@pytest.mark.parametrize("source", ("handed over", "drawn inline"))
def test_layer_1_frees_the_noise_pair_before_it_mixes(monkeypatch, source, n_layers):
    g = random_signed_graph(40, seed=12)
    na = normalize(g)
    x = np.random.default_rng(3).standard_normal((na.n, 6))
    params = init_params(6, 4, n_layers, seed=1)
    cfg = DiffusionConfig(c=0.4, k_steps=3, m0_mode="uniform")
    refs, alive = [], []  # alive: per _mix call, is either half of the pair alive?
    real_noise, real_mix = sgdnet.diffusion._noise_state, sgdnet.model._mix

    def noise_state(*args):
        pair = real_noise(*args)
        refs.extend([weakref.ref(pair.p), weakref.ref(pair.m)])
        return pair

    def mix(*args):
        alive.append(any(ref() is not None for ref in refs))
        return real_mix(*args)

    monkeypatch.setattr(sgdnet.diffusion, "_noise_state", noise_state)
    monkeypatch.setattr(sgdnet.model, "_mix", mix)
    noise = None
    if source == "handed over":
        noise = [sgdnet.diffusion._noise_state(na, (na.n, 4), cfg, np.random.default_rng(5))]
    model_forward(na, x, params, cfg, rng=np.random.default_rng(5),
                  x_diffused=diffuse_inputs(na, x, cfg), noise=noise)
    assert len(refs) == 2 and alive == [False] * n_layers
    assert noise in (None, [])


@pytest.mark.parametrize("precomputed", (False, True))
def test_only_the_direct_path_keeps_h0(monkeypatch, precomputed):
    # backward reads h0 = x @ w_in only on the direct path, as layer 1's input.
    g = random_signed_graph(40, seed=13)
    na = normalize(g)
    x = np.random.default_rng(4).standard_normal((na.n, 6))
    params, cfg = init_params(6, 4, 2, seed=2), zero_cfg()
    refs = []
    real_first, real_layer = sgdnet.model._first_layer_forward, sgdnet.model.layer_forward

    def first_layer_forward(h0, *args):
        refs.append(weakref.ref(h0))
        return real_first(h0, *args)

    def layer_forward(na, h_prev, *args, **kwargs):
        if not refs:
            refs.append(weakref.ref(h_prev))
        return real_layer(na, h_prev, *args, **kwargs)

    monkeypatch.setattr(sgdnet.model, "_first_layer_forward", first_layer_forward)
    monkeypatch.setattr(sgdnet.model, "layer_forward", layer_forward)
    x_diffused = diffuse_inputs(na, x, cfg) if precomputed else None
    h_final, cache = model_forward(na, x, params, cfg, x_diffused=x_diffused)
    assert len(refs) == 1
    if precomputed:
        assert refs[0]() is None and cache.layers[0].h_prev is None
    else:
        assert refs[0]() is cache.layers[0].h_prev is not None


def test_layer_output_in_open_unit_interval():
    g = random_signed_graph(30, seed=4)
    na = normalize(g)
    rng = np.random.default_rng(2)
    h_prev = rng.standard_normal((30, 8)) * 3
    params = init_params(8, 8, 1, seed=1)
    h_next, _ = layer_forward(na, h_prev, params.layers[0], zero_cfg())
    assert np.all(h_next > -1.0) and np.all(h_next < 1.0)


def test_model_forward_shapes_and_depth_effect():
    g = random_signed_graph(20, seed=5)
    na = normalize(g)
    rng = np.random.default_rng(3)
    x = rng.standard_normal((20, 6))
    p1 = init_params(6, 4, 1, seed=9)
    p2 = init_params(6, 4, 2, seed=9)
    h1, caches1 = model_forward(na, x, p1, zero_cfg())
    h2, caches2 = model_forward(na, x, p2, zero_cfg())
    assert h1.shape == (20, 4)
    assert len(caches1.layers) == 1 and len(caches2.layers) == 2
    assert not np.allclose(h1, h2)


def test_model_forward_zero_input():
    g = random_signed_graph(8, seed=6)
    na = normalize(g)
    params = init_params(3, 2, 1, seed=0)
    h, _ = model_forward(na, np.zeros((8, 3)), params, zero_cfg())
    assert np.allclose(h, 0.0)


def test_model_forward_dimension_mismatch():
    g = random_signed_graph(8, seed=6)
    na = normalize(g)
    params = init_params(3, 2, 1, seed=0)
    with pytest.raises(ValueError):
        model_forward(na, np.zeros((8, 5)), params, zero_cfg())


@pytest.mark.parametrize("precomputed", (False, True))
def test_model_forward_uniform_mode_without_an_rng_raises(precomputed):
    g = random_signed_graph(8, seed=6)
    na = normalize(g)
    x = np.random.default_rng(1).standard_normal((8, 3))
    cfg = DiffusionConfig(c=0.5, k_steps=2, m0_mode="uniform")
    x_diffused = diffuse_inputs(na, x, cfg) if precomputed else None
    with pytest.raises(ValueError, match="needs an rng"):
        model_forward(na, x, init_params(3, 2, 1, seed=0), cfg, x_diffused=x_diffused)


@pytest.mark.parametrize("precomputed", (False, True))
def test_forward_cache_records_what_the_pass_ran_on(precomputed):
    g = random_signed_graph(8, seed=6)
    na = normalize(g)
    x = np.random.default_rng(1).standard_normal((8, 3))
    params, cfg = init_params(3, 2, 2, seed=0), zero_cfg()
    x_diffused = diffuse_inputs(na, x, cfg) if precomputed else None
    _, cache = model_forward(na, x, params, cfg, x_diffused=x_diffused)
    assert cache.na is na and cache.cfg is cfg and cache.params is params
    assert cache.x_diffused is x_diffused
    assert np.array_equal(cache.x, x) and len(cache.layers) == 2


def test_model_forward_deterministic_with_zero_m0():
    g = random_signed_graph(12, seed=8)
    na = normalize(g)
    rng = np.random.default_rng(4)
    x = rng.standard_normal((12, 5))
    params = init_params(5, 3, 2, seed=2)
    h_a, _ = model_forward(na, x, params, zero_cfg())
    h_b, _ = model_forward(na, x, params, zero_cfg())
    assert np.array_equal(h_a, h_b)


def test_skip_identity_for_stacked_zero_layers():
    g = random_signed_graph(9, seed=10)
    na = normalize(g)
    rng = np.random.default_rng(5)
    x = rng.standard_normal((9, 4))
    params = zeroed(init_params(4, 4, 3, seed=0))
    # Zero input projection collapses everything; use identity to isolate layers.
    params.w_in[:] = np.eye(4)
    h, _ = model_forward(na, x, params, zero_cfg())
    assert np.allclose(h, np.tanh(np.tanh(np.tanh(x))))


# ---------------------------------------------------------------- edge scoring


def test_edge_logits_zero_head_gives_uniform_softmax():
    h = np.random.default_rng(0).standard_normal((5, 3))
    batch = as_edge_list([SignedEdge(0, 1, 1), SignedEdge(2, 4, -1)])
    logits = edge_logits(h, batch, np.zeros((6, 2)))
    assert np.allclose(logits, 0.0)
    assert np.allclose(softmax(logits), 0.5)


def test_edge_logits_concat_arithmetic():
    h = np.array([[1.0], [-1.0]])
    batch = as_edge_list([SignedEdge(0, 1, 1)])
    w_head = np.eye(2)
    logits = edge_logits(h, batch, w_head)
    assert np.allclose(logits, [[1.0, -1.0]])


def test_edge_logits_direction_matters():
    rng = np.random.default_rng(1)
    h = rng.standard_normal((4, 3))
    w_head = rng.standard_normal((6, 2))
    fwd = edge_logits(h, as_edge_list([SignedEdge(0, 2, 1)]), w_head)
    rev = edge_logits(h, as_edge_list([SignedEdge(2, 0, 1)]), w_head)
    assert not np.allclose(fwd, rev)


def test_edge_logits_matches_concatenation_reference():
    # Repeated pairs, u == v pairs, and nodes 7 and 8 in no edge.
    uv = np.array([(0, 1), (0, 1), (2, 2), (1, 0), (3, 0), (0, 3), (5, 5), (6, 2), (0, 0), (4, 6)])
    batch = EdgeList(uv[:, 0], uv[:, 1], np.ones(len(uv)))
    rng = np.random.default_rng(12)
    h = rng.standard_normal((9, 4))
    w_head = rng.standard_normal((8, 2))
    reference = np.hstack([h[uv[:, 0]], h[uv[:, 1]]]) @ w_head
    logits = edge_logits(h, batch, w_head)
    assert np.abs(logits - reference).max() <= 1e-12 * np.abs(reference).max()


@pytest.mark.parametrize("bad", (-1, 3))
@pytest.mark.parametrize("column", ("src", "dst"))
def test_edge_logits_id_range_check(column, bad):
    h = np.zeros((3, 2))
    ids = {"src": [0, 1], "dst": [2, 1]}
    ids[column][1] = bad
    with pytest.raises(ValueError, match="outside 0..2"):
        edge_logits(h, EdgeList(ids["src"], ids["dst"], [1, -1]), np.zeros((4, 2)))


def test_edge_logits_of_no_edges_is_empty():
    logits = edge_logits(np.zeros((3, 2)), EdgeList([], [], []), np.zeros((4, 2)))
    assert logits.shape == (0, 2)


def test_edge_batch_from_edges_gives_the_edge_list():
    # The name stays for the benchmark harness, which builds its test batch
    # with it.
    g = random_signed_graph(8, seed=1)
    assert EdgeBatch.from_edges(g.edges) is g.edges
    rows = EdgeBatch.from_edges([SignedEdge(0, 1, 1), SignedEdge(2, 4, -1)])
    assert [c.tolist() for c in (rows.src, rows.dst, rows.sign)] == [[0, 2], [1, 4], [1, -1]]


# ---------------------------------------------------------------- loss


def test_loss_uniform_logits_is_log_two():
    params = zeroed(init_params(2, 2, 1, seed=0))
    logits = np.zeros((10, 2))
    signs = np.array([1, -1] * 5)
    assert np.isclose(loss_total(logits, signs, params, 0.0), np.log(2.0))


def test_loss_saturated_correct_is_tiny():
    params = zeroed(init_params(2, 2, 1, seed=0))
    signs = np.array([1, -1, 1])
    logits = np.array([[25.0, 0.0], [0.0, 25.0], [30.0, 5.0]])
    assert loss_total(logits, signs, params, 0.0) < 1e-8


def test_loss_regularization_arithmetic():
    params = zeroed(init_params(2, 2, 1, seed=0))
    params.w_head[:2, :2] = np.eye(2)
    logits = np.zeros((4, 2))
    signs = np.array([1, 1, -1, -1])
    expected = np.log(2.0) + 0.001 * 2.0
    assert np.isclose(loss_total(logits, signs, params, 0.001), expected)


def test_loss_nonnegative_and_stable_for_huge_logits():
    params = zeroed(init_params(2, 2, 1, seed=0))
    logits = np.array([[1e6, -1e6], [-1e6, 1e6]])
    signs = np.array([1, 1])
    value = loss_total(logits, signs, params, 0.0)
    assert np.isfinite(value) and value >= 0.0


def test_loss_positive_unless_saturated():
    params = zeroed(init_params(2, 2, 1, seed=0))
    rng = np.random.default_rng(9)
    for _ in range(50):
        logits = rng.standard_normal((6, 2)) * 3
        signs = rng.choice([1, -1], size=6)
        assert loss_total(logits, signs, params, 0.0) > 0.0


def test_loss_grad_matches_softmax_minus_onehot():
    logits = np.array([[0.3, -0.2], [1.0, 1.5]])
    signs = np.array([1, -1])
    grad = loss_grad_logits(logits, signs)
    probs = softmax(logits)
    expected = probs.copy()
    expected[0, 0] -= 1.0
    expected[1, 1] -= 1.0
    assert np.allclose(grad, expected / 2.0)


HEAD_LOGITS = {
    "normal": lambda rng, b: 3.0 * rng.standard_normal((b, 2)),
    "tied": lambda rng, b: np.repeat(rng.uniform(-1e3, 1e3, size=(b, 1)), 2, axis=1),
    "huge": lambda rng, b: rng.uniform(-1e3, 1e3, size=(b, 2)),
    "some_tied": lambda rng, b: np.where(
        rng.random((b, 1)) < 0.5, rng.standard_normal((b, 1)), rng.standard_normal((b, 2))
    ),
}
HEAD_SIGNS = {
    "positive": lambda rng, b: np.ones(b, dtype=np.int64),
    "negative": lambda rng, b: -np.ones(b, dtype=np.int64),
    "mixed": lambda rng, b: rng.permutation(np.where(np.arange(b) % 2, -1, 1)),
}


@pytest.mark.parametrize("signs_kind", sorted(HEAD_SIGNS))
@pytest.mark.parametrize("logits_kind", sorted(HEAD_LOGITS))
@pytest.mark.parametrize("b", (1, 2, 1000))
def test_loss_head_is_bitwise_the_row_wise_reference(b, logits_kind, signs_kind):
    rng = np.random.default_rng(b)
    logits = HEAD_LOGITS[logits_kind](rng, b)
    signs = HEAD_SIGNS[signs_kind](rng, b)
    params = init_params(3, 2, 1, seed=b)
    for weight_decay in (0.0, 1e-3):
        assert (loss_total(logits, signs, params, weight_decay)
                == reference_loss_total(logits, signs, params, weight_decay))
    assert np.array_equal(softmax(logits), reference_softmax(logits))
    assert np.array_equal(loss_grad_logits(logits, signs),
                          reference_loss_grad_logits(logits, signs))


# ---------------------------------------------------------------- checkpoints


@pytest.mark.parametrize("n_layers", (1, 2, 3))
def test_checkpoint_roundtrip_bitwise(tmp_path, n_layers):
    g = random_signed_graph(14, seed=12)
    na = normalize(g)
    rng = np.random.default_rng(6)
    x = rng.standard_normal((14, 5))
    params = init_params(5, 3, n_layers, seed=4)
    cfg = zero_cfg(c=0.35, k=10)
    path = tmp_path / "model.sgdn"
    save_checkpoint(path, params, cfg)
    # The bytes of the per-matrix writer: the header, then the matrices in
    # `named()` order.
    header = _HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, 5, 3, n_layers, 0.35, 10)
    assert path.read_bytes() == header + b"".join(w.tobytes() for _, w in params.named())
    loaded, loaded_cfg = load_checkpoint(path)
    assert loaded_cfg.c == cfg.c and loaded_cfg.k_steps == cfg.k_steps
    # Saving what was loaded writes the same bytes.
    save_checkpoint(tmp_path / "resaved.sgdn", loaded, loaded_cfg)
    assert (tmp_path / "resaved.sgdn").read_bytes() == path.read_bytes()
    for (_, wa), (_, wb) in zip(params.named(), loaded.named()):
        assert np.array_equal(wa, wb)
    h_a, _ = model_forward(na, x, params, cfg)
    h_b, _ = model_forward(na, x, loaded, cfg)
    assert np.array_equal(h_a, h_b)


def test_checkpoint_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad.sgdn"
    path.write_bytes(b"XXXX" + b"\x00" * 64)
    with pytest.raises(ValueError, match="magic"):
        load_checkpoint(path)


# Cut points inside the magic, the version, the dims, c, K, the first matrix
# and the last; the header is 32 bytes and the payload 26 float64.
@pytest.mark.parametrize("keep", [0, 2, 6, 10, 22, 30, 36, 32 + 208 - 8])
def test_checkpoint_rejects_truncation(tmp_path, keep):
    params = init_params(3, 2, 1, seed=0)
    path = tmp_path / "model.sgdn"
    save_checkpoint(path, params, zero_cfg())
    raw = path.read_bytes()
    assert len(raw) == 32 + 208
    path.write_bytes(raw[:keep])
    with pytest.raises(ValueError, match="truncated"):
        load_checkpoint(path)


# Dims (d0, d, layers) that claim 2^50 bytes or more, or a size past any
# index: the loader must turn them away before it asks for the memory.
@pytest.mark.parametrize(
    "dims", [(2**31, 2**31, 1), (2**32 - 1, 2**20, 1), (3, 2**31, 2**32 - 1)]
)
def test_checkpoint_rejects_huge_claimed_dims(tmp_path, dims):
    path = tmp_path / "model.sgdn"
    save_checkpoint(path, init_params(3, 2, 1, seed=0), zero_cfg())
    raw = bytearray(path.read_bytes())
    struct.pack_into("<III", raw, 8, *dims)
    path.write_bytes(raw)
    with pytest.raises(ValueError, match="truncated"):
        load_checkpoint(path)


# Zero dimensions with a payload of exactly the claimed size: d = 0 zeroes
# the size whatever the layer count, so the size check alone lets them load.
@pytest.mark.parametrize("dims", [(4, 0, 3), (0, 4, 1), (4, 4, 0), (8, 0, 0)])
def test_checkpoint_rejects_zero_dims(tmp_path, dims):
    d0, d, n_layers = dims
    path = tmp_path / "model.sgdn"
    save_checkpoint(path, init_params(3, 2, 1, seed=0), zero_cfg())
    raw = bytearray(path.read_bytes()[:_HEADER.size])
    struct.pack_into("<III", raw, 8, *dims)
    path.write_bytes(bytes(raw) + bytes(8 * (d0 * d + n_layers * 3 * d * d + 4 * d)))
    with pytest.raises(ValueError, match="must be positive"):
        load_checkpoint(path)


def test_checkpoint_rejects_trailing_bytes(tmp_path):
    path = tmp_path / "model.sgdn"
    save_checkpoint(path, init_params(3, 2, 1, seed=0), zero_cfg())
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(ValueError, match="trailing"):
        load_checkpoint(path)


# A header whose c or K the diffusion rejects: the error names the file.
@pytest.mark.parametrize("c, k_steps", [(float("nan"), 4), (0.0, 4), (1.5, 4), (0.5, 0)])
def test_checkpoint_rejects_a_bad_diffusion_header_naming_the_file(tmp_path, c, k_steps):
    path = tmp_path / "model.sgdn"
    save_checkpoint(path, init_params(3, 2, 1, seed=0), zero_cfg())
    raw = bytearray(path.read_bytes())
    struct.pack_into("<dI", raw, 20, c, k_steps)
    path.write_bytes(raw)
    with pytest.raises(ValueError, match=re.escape(f"{path}: ")):
        load_checkpoint(path)
