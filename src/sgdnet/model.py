"""Diffusion layers, the full forward pass, edge scoring, and the training loss.

A layer transforms its input, diffuses the transformed features over the
signed graph, mixes the two diffusion channels, and adds a skip connection:

    h_next = tanh([p || m] @ w_n + h_prev)

[p || m] is the diffusion's n x 2d block (see `diffusion`), kept as `LayerCache.pm`.

The diffusion is linear in the features it carries. Layer 1 diffuses
h_tilde = x @ w_in @ w_t, so diffuse(x @ W) = diffuse(x) @ W with
W = w_in @ w_t, and the zero-start diffusion (x_p, x_m) of the raw input
features can be run once per training graph (`diffuse_inputs`). Given it,
layer 1 computes p = x_p @ W and m = x_m @ W, into the halves of a block,
with no sparse work. In uniform mode it adds the parameter-free pair
diffuse(0, m0), the "noise" (`diffusion._noise_state`). `training.train`
decides when the precompute pays and schedules the noise (see there).
Layers 2 and up always diffuse directly.

The prediction head scores an edge (u, v) from the concatenated endpoint
embeddings, with class 0 meaning a positive sign and class 1 a negative sign.
The head is linear, so it is applied per node before the endpoint gather.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import diffusion
from .diffusion import DiffusionConfig, DiffusionState
from .features import _read_artifact, _write_artifact
from .graph import NormalizedAdjacency, as_edge_list

CHECKPOINT_MAGIC = b"SGDN"
CHECKPOINT_VERSION = 1
_HEADER = struct.Struct("<4sIIIIdI")  # magic, version, d0, d, layers, c, K


class NumericError(RuntimeError):
    """Non-finite values appeared during a forward or training pass."""


@dataclass
class LayerParams:
    w_t: np.ndarray  # d x d feature transform
    w_n: np.ndarray  # 2d x d channel-mixing transform


@dataclass
class ModelParams:
    w_in: np.ndarray  # d0 x d input projection
    layers: list[LayerParams]
    w_head: np.ndarray  # 2d x 2 prediction head

    def named(self) -> list[tuple[str, np.ndarray]]:
        """Stable (name, matrix) listing used by the optimizer and gradients."""
        out = [("w_in", self.w_in)]
        for i, layer in enumerate(self.layers):
            out.append((f"layers.{i}.w_t", layer.w_t))
            out.append((f"layers.{i}.w_n", layer.w_n))
        out.append(("w_head", self.w_head))
        return out

    @property
    def dims(self) -> tuple[int, int, int]:
        """(d0, d, layer count)."""
        return self.w_in.shape[0], self.w_in.shape[1], len(self.layers)


def init_params(d0: int, d: int, n_layers: int, seed: int = 0) -> ModelParams:
    """Uniform(-sqrt(1/fan_in), +sqrt(1/fan_in)) initialization per matrix."""
    if d0 < 1 or d < 1 or n_layers < 1:
        raise ValueError(f"dimensions must be positive, got d0={d0}, d={d}, layers={n_layers}")
    rng = np.random.default_rng(seed)

    def uniform(fan_in, shape):
        bound = np.sqrt(1.0 / fan_in)
        return rng.uniform(-bound, bound, size=shape)

    w_in = uniform(d0, (d0, d))
    layers = [
        LayerParams(w_t=uniform(d, (d, d)), w_n=uniform(2 * d, (2 * d, d)))
        for _ in range(n_layers)
    ]
    w_head = uniform(2 * d, (2 * d, 2))
    return ModelParams(w_in=w_in, layers=layers, w_head=w_head)


class LayerCache(NamedTuple):
    h_prev: np.ndarray
    pm: np.ndarray  # the diffused channels as one n x 2d block [p || m]
    h_next: np.ndarray


class ForwardCache(NamedTuple):
    """What `model_forward` ran on and keeps, one `LayerCache` per layer: all
    that `training.backward` reads. `backward` pops `layers` as it goes."""

    na: NormalizedAdjacency
    cfg: DiffusionConfig
    params: ModelParams
    x: np.ndarray
    x_diffused: DiffusionState | None
    h0: np.ndarray
    layers: list[LayerCache]


def layer_forward(
    na: NormalizedAdjacency,
    h_prev: np.ndarray,
    params: LayerParams,
    cfg: DiffusionConfig,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, LayerCache]:
    """One diffusion layer; the cache keeps what the backward pass needs."""
    h_tilde = h_prev @ params.w_t
    if not np.all(np.isfinite(h_tilde)):
        raise NumericError("non-finite features entering the diffusion")
    return _mix(h_prev, diffusion._diffuse(na, h_tilde, cfg, rng), params)


def _first_layer_forward(
    h0: np.ndarray,
    x_diffused: DiffusionState,
    w_in: np.ndarray,
    params: LayerParams,
    noise: DiffusionState | None,
) -> tuple[np.ndarray, LayerCache]:
    """Layer 1 from the precomputed diffusion of x: diffuse(x) @ (w_in @ w_t),
    plus `noise`, the diffusion of (0, m0), if given."""
    w = w_in @ params.w_t
    d = w.shape[1]
    pm = np.empty((h0.shape[0], 2 * d))
    p = np.matmul(x_diffused.p, w, out=pm[:, :d])
    m = np.matmul(x_diffused.m, w, out=pm[:, d:])
    if noise is not None:
        p += noise.p
        m += noise.m
    return _mix(h0, pm, params)


def _mix(h_prev, pm, params: LayerParams) -> tuple[np.ndarray, LayerCache]:
    """Mix the diffusion channels, held as one n x 2d block [p || m], add
    the skip connection, apply tanh."""
    pre = pm @ params.w_n
    pre += h_prev
    if not np.all(np.isfinite(pre)):
        raise NumericError("non-finite activations in diffusion layer")
    h_next = np.tanh(pre)
    return h_next, LayerCache(h_prev=h_prev, pm=pm, h_next=h_next)


def diffuse_inputs(
    na: NormalizedAdjacency, x: np.ndarray, cfg: DiffusionConfig
) -> DiffusionState:
    """The zero-start diffusion of the input features that layer 1 reuses."""
    return diffusion.diffuse(na, x, replace(cfg, m0_mode="zero"))


def model_forward(
    na: NormalizedAdjacency,
    x: np.ndarray,
    params: ModelParams,
    cfg: DiffusionConfig,
    rng: np.random.Generator | None = None,
    x_diffused: DiffusionState | None = None,
    noise: DiffusionState | None = None,
) -> tuple[np.ndarray, ForwardCache]:
    """Project the input features and apply every diffusion layer in order.

    With `x_diffused` (from `diffuse_inputs` on the same na, x and cfg),
    layer 1 runs without a diffusion of its own and adds `noise`, the
    diffusion of (0, m0) (`diffusion._noise_state`), if given; in uniform
    mode without it, layer 1 draws that pair from `rng`.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (na.n, params.w_in.shape[0]):
        raise ValueError(
            f"input features must be {na.n} x {params.w_in.shape[0]}, got shape {x.shape}"
        )
    h0 = h = x @ params.w_in
    caches = []
    for i, layer in enumerate(params.layers):
        if i == 0 and x_diffused is not None:
            if noise is None and cfg.m0_mode == "uniform":
                noise = diffusion._noise_state(na, h.shape, cfg, rng)
            h, cache = _first_layer_forward(h, x_diffused, params.w_in, layer, noise)
        else:
            h, cache = layer_forward(na, h, layer, cfg, rng=rng)
        caches.append(cache)
    return h, ForwardCache(na, cfg, params, x, x_diffused, h0, caches)


class EdgeBatch(NamedTuple):
    uv: np.ndarray  # b x 2 int64 endpoint ids
    signs: np.ndarray  # b int64 labels, +1 or -1

    @classmethod
    def from_edges(cls, edges) -> "EdgeBatch":
        edges = as_edge_list(edges)
        return cls(uv=np.stack([edges.src, edges.dst], axis=1), signs=edges.sign)

    def __len__(self) -> int:
        return self.uv.shape[0]


def edge_logits(h_final: np.ndarray, batch: EdgeBatch, w_head: np.ndarray) -> np.ndarray:
    """Score each (u, v) pair as [h_u || h_v] @ w_head, no bias.

    Computed in factored form, h_u @ w_head[:d] + h_v @ w_head[d:], so the
    gather is of n x 2 node scores rather than b x 2d endpoint rows.
    """
    n, d = h_final.shape
    if len(batch) and (batch.uv.min() < 0 or batch.uv.max() >= n):
        raise ValueError(f"edge batch references node ids outside 0..{n - 1}")
    return (h_final @ w_head[:d])[batch.uv[:, 0]] + (h_final @ w_head[d:])[batch.uv[:, 1]]


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax of the head's b x 2 logits (class 0 positive, 1 negative)."""
    shifted = logits - np.maximum(logits[:, 0], logits[:, 1])[:, None]
    e = np.exp(shifted)
    return e / (e[:, 0] + e[:, 1])[:, None]


def params_sq_norm(params: ModelParams) -> float:
    return float(sum(np.sum(w * w) for _, w in params.named()))


def loss_total(
    logits: np.ndarray,
    signs: np.ndarray,
    params: ModelParams,
    weight_decay: float,
) -> float:
    """Mean two-class cross entropy over edges (class 0 for a +1 sign, 1 for
    -1) plus weight_decay * sum of squared weights."""
    l0, l1 = logits[:, 0], logits[:, 1]
    top = np.maximum(l0, l1)
    s0, s1 = l0 - top, l1 - top
    log_norm = np.log(np.exp(s0) + np.exp(s1))
    data = float(np.mean(log_norm - np.where(np.asarray(signs) < 0, s1, s0)))
    return data + weight_decay * params_sq_norm(params)


def loss_grad_logits(logits: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """Gradient of the mean two-class cross entropy with respect to the b x 2
    logits: the softmax minus the one-hot of each edge's class."""
    negative = np.asarray(signs) < 0
    grad = softmax(logits)
    grad[:, 0] -= ~negative
    grad[:, 1] -= negative
    grad /= len(negative)
    return grad


def save_checkpoint(path, params: ModelParams, cfg: DiffusionConfig) -> None:
    """Write a model checkpoint: magic, version, dims, c, K, then the matrices
    in `ModelParams.named` order (`features._write_artifact`)."""
    d0, d, n_layers = params.dims
    header = _HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, d0, d, n_layers,
                          cfg.c, cfg.k_steps)
    _write_artifact(path, "checkpoint", header, [w for _, w in params.named()])


def _payload_size(d0, d, n_layers, c, k_steps) -> int:
    """The float64 count of a checkpoint's matrices, from its header fields."""
    # Checked before the size: a zero dimension would zero it whatever the
    # layer count.
    if d0 < 1 or d < 1 or n_layers < 1:
        raise ValueError(
            f"checkpoint dimensions must be positive, got d0={d0}, d={d}, layers={n_layers}"
        )
    DiffusionConfig(c=c, k_steps=k_steps)  # raises on a bad c or K
    return d0 * d + n_layers * 3 * d * d + 2 * d * 2


def load_checkpoint(path) -> tuple[ModelParams, DiffusionConfig]:
    """Read a `save_checkpoint` file (`features._read_artifact`). The matrices
    are views of the one payload array, so the file is read into memory once."""
    (d0, d, n_layers, c, k_steps), payload = _read_artifact(
        path, "checkpoint", _HEADER, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, _payload_size
    )
    shapes = [(d0, d)] + [(d, d), (2 * d, d)] * n_layers + [(2 * d, 2)]
    ends = np.cumsum([rows * cols for rows, cols in shapes])
    w_in, *ws, w_head = map(np.reshape, np.split(payload, ends[:-1]), shapes)
    layers = [LayerParams(w_t=w_t, w_n=w_n) for w_t, w_n in zip(ws[::2], ws[1::2])]
    return ModelParams(w_in=w_in, layers=layers, w_head=w_head), DiffusionConfig(c, k_steps)
