"""Diffusion layers, the full forward pass, edge scoring, the loss, and the
checkpoint format.

A layer transforms its input, diffuses it, mixes the diffusion's n x 2d
block [p || m] (kept as `LayerCache.pm`) and adds a skip connection:

    h_next = tanh([p || m] @ w_n + h_prev)

The precompute identity: the diffusion is linear in the features it
carries, and layer 1 diffuses x @ w_in @ w_t, so with W = w_in @ w_t,
diffuse(x @ W) = diffuse(x) @ W. `diffuse_inputs` runs the zero-start
diffusion (x_p, x_m) of x once per training graph, as 2n x d0 rows: row 2i
is node i's x_p and row 2i + 1 its x_m. Layer 1 then forms [p || m] as one
product, rows @ W read as n x 2d, plus in uniform mode the parameter-free
noise pair diffuse(0, m0). Its backward needs no adjoint: G = x_p^T dp +
x_m^T dm is one product of the rows with [dp || dm] read as 2n x d, and
the gradients are w_in^T G for w_t and x^T dpre + G w_t^T for w_in.
Layers 2 and up always diffuse directly.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import diffusion
from .diffusion import DiffusionConfig
from .features import _read_artifact, _write_artifact
from .graph import EdgeList, NormalizedAdjacency, as_edge_list

# Columns of x per `diffuse_inputs` block.
_INPUT_BLOCK = 32

CHECKPOINT_MAGIC = b"SGDN"
CHECKPOINT_VERSION = 1
_HEADER = struct.Struct("<4sIIIIdI")  # magic, version, d0, d, layers, c, K


class NumericError(RuntimeError):
    """Non-finite values appeared during a forward or training pass."""


@dataclass
class LayerParams:
    w_t: np.ndarray  # d x d feature transform
    w_n: np.ndarray  # 2d x d channel-mixing transform


def _shapes(d0: int, d: int, n_layers: int):
    if d0 < 1 or d < 1 or n_layers < 1:
        raise ValueError(f"dimensions must be positive, got d0={d0}, d={d}, layers={n_layers}")
    return (d0, d), [(d, d), (2 * d, d)], (2 * d, 2)


@dataclass
class ModelParams:
    """Every trainable matrix, as views of one float64 vector (`from_flat`)."""

    flat: np.ndarray
    w_in: np.ndarray  # d0 x d input projection
    layers: list[LayerParams]
    w_head: np.ndarray  # 2d x 2 prediction head

    @classmethod
    def from_flat(cls, flat: np.ndarray | None, d0: int, d: int, n_layers: int) -> ModelParams:
        """Views of `flat` in `named()` order; of a new vector if it is None."""
        first, layer, last = _shapes(d0, d, n_layers)
        shapes = [first] + layer * n_layers + [last]
        ends = np.cumsum([rows * cols for rows, cols in shapes])
        flat = np.empty(ends[-1]) if flat is None else flat
        w_in, *ws, w_head = map(np.reshape, np.split(flat, ends[:-1]), shapes)
        layers = [LayerParams(w_t=w_t, w_n=w_n) for w_t, w_n in zip(ws[::2], ws[1::2])]
        return cls(flat, w_in, layers, w_head)

    def copy(self) -> ModelParams:
        """A new vector, with views of its own."""
        return ModelParams.from_flat(self.flat.copy(), *self.dims)

    def named(self) -> list[tuple[str, np.ndarray]]:
        """Stable (name, matrix) listing, in the order of `flat`."""
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
    """Uniform(-sqrt(1/fan_in), +sqrt(1/fan_in)) initialization per matrix,
    drawn in `named()` order; a matrix's fan-in is its row count."""
    rng = np.random.default_rng(seed)
    params = ModelParams.from_flat(None, d0, d, n_layers)
    for _, w in params.named():
        bound = np.sqrt(1.0 / w.shape[0])
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    return params


class LayerCache(NamedTuple):
    h_prev: np.ndarray | None  # None for layer 1 on the precompute path
    pm: np.ndarray  # the diffused channels as one n x 2d block [p || m]
    h_next: np.ndarray


class ForwardCache(NamedTuple):
    """What `model_forward` ran on and keeps, one `LayerCache` per layer: all
    that `training.backward` reads. `backward` pops `layers` as it goes."""

    na: NormalizedAdjacency
    cfg: DiffusionConfig
    params: ModelParams
    x: np.ndarray
    x_diffused: np.ndarray | None  # the rows of `diffuse_inputs`
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
    x_diffused: np.ndarray,
    w_in: np.ndarray,
    params: LayerParams,
    noise: list | None,
) -> tuple[np.ndarray, LayerCache]:
    """Layer 1 from the rows of `diffuse_inputs`, plus the noise pair popped
    from `noise` if it holds one, which is freed once added. The cache keeps
    no h0, which the backward reads only on the direct path."""
    w = w_in @ params.w_t
    d = w.shape[1]
    # Row 2i of the product is node i's p and row 2i + 1 its m.
    pm = (x_diffused @ w).reshape(h0.shape[0], 2 * d)
    if noise:
        pair = noise.pop()
        pm[:, :d] += pair.p
        pm[:, d:] += pair.m
        del pair
    h_next, cache = _mix(h0, pm, params)
    return h_next, cache._replace(h_prev=None)


def _mix(h_prev, pm, params: LayerParams) -> tuple[np.ndarray, LayerCache]:
    """Mix the diffusion channels, held as one n x 2d block [p || m], add
    the skip connection, apply tanh in place."""
    pre = pm @ params.w_n
    pre += h_prev
    if not np.all(np.isfinite(pre)):
        raise NumericError("non-finite activations in diffusion layer")
    h_next = np.tanh(pre, out=pre)
    return h_next, LayerCache(h_prev=h_prev, pm=pm, h_next=h_next)


def diffuse_inputs(
    na: NormalizedAdjacency, x: np.ndarray, cfg: DiffusionConfig
) -> np.ndarray:
    """The zero-start diffusion of x as the 2n x d0 rows that layer 1 reads
    (see the module docstring).

    Diffuses `_INPUT_BLOCK` columns of x at a time, so only one block's
    walks are live at once. Each column takes the same sparse products as
    in one whole diffusion, so the result is bitwise the same."""
    x = diffusion._check_features(na, x)  # so that an error names x's own shape
    zero = replace(cfg, m0_mode="zero")
    out = np.empty((na.n, 2, x.shape[1]))
    for j in range(0, x.shape[1], _INPUT_BLOCK):
        cols = slice(j, j + _INPUT_BLOCK)
        out[:, 0, cols], out[:, 1, cols] = diffusion.diffuse(na, x[:, cols], zero)
    return out.reshape(2 * na.n, x.shape[1])


def model_forward(
    na: NormalizedAdjacency,
    x: np.ndarray,
    params: ModelParams,
    cfg: DiffusionConfig,
    rng: np.random.Generator | None = None,
    x_diffused: np.ndarray | None = None,
    noise: list | None = None,
) -> tuple[np.ndarray, ForwardCache]:
    """Project the input features and apply every diffusion layer in order.

    With `x_diffused` (from `diffuse_inputs` on the same na, x and cfg),
    layer 1 adds the noise pair that `noise` hands over in a one-element
    list, which it pops; in uniform mode without one, it draws the pair
    from `rng`.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (na.n, params.w_in.shape[0]):
        raise ValueError(
            f"input features must be {na.n} x {params.w_in.shape[0]}, got shape {x.shape}"
        )
    h = x @ params.w_in
    caches = []
    for i, layer in enumerate(params.layers):
        if i == 0 and x_diffused is not None:
            if noise is None and cfg.m0_mode == "uniform":
                noise = [diffusion._noise_state(na, h.shape, cfg, rng)]
            h, cache = _first_layer_forward(h, x_diffused, params.w_in, layer, noise)
        else:
            h, cache = layer_forward(na, h, layer, cfg, rng=rng)
        caches.append(cache)
    return h, ForwardCache(na, cfg, params, x, x_diffused, caches)


class EdgeBatch:
    """Kept for the benchmark harness; the loss batch is the `EdgeList` itself."""

    from_edges = staticmethod(as_edge_list)


def edge_logits(h_final: np.ndarray, edges: EdgeList, w_head: np.ndarray) -> np.ndarray:
    """Score each edge (src, dst) as [h_src || h_dst] @ w_head, no bias. The
    head is linear, so it scores the nodes before the endpoint gather:
    h_src @ w_head[:d] + h_dst @ w_head[d:]."""
    n, d = h_final.shape
    src, dst = edges.src, edges.dst
    if len(src) and (min(src.min(), dst.min()) < 0 or max(src.max(), dst.max()) >= n):
        raise ValueError(f"edge batch references node ids outside 0..{n - 1}")
    return (h_final @ w_head[:d])[src] + (h_final @ w_head[d:])[dst]


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
    """Write a model checkpoint: magic, version, dims, c, K, then the bytes of
    `ModelParams.flat`, its matrices in `named` order."""
    d0, d, n_layers = params.dims
    header = _HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, d0, d, n_layers,
                          cfg.c, cfg.k_steps)
    _write_artifact(path, "checkpoint", header, params.flat)


def _payload_size(d0, d, n_layers, c, k_steps) -> int:
    """The float64 count of a checkpoint's matrices, from its header fields."""
    (r0, c0), layer, (r1, c1) = _shapes(d0, d, n_layers)
    DiffusionConfig(c=c, k_steps=k_steps)  # raises on a bad c or K
    return r0 * c0 + n_layers * sum(rows * cols for rows, cols in layer) + r1 * c1


def load_checkpoint(path) -> tuple[ModelParams, DiffusionConfig]:
    """Read a `save_checkpoint` file (`features._read_artifact`). The payload
    becomes `ModelParams.flat`, so the file is read into memory once."""
    (d0, d, n_layers, c, k_steps), payload = _read_artifact(
        path, "checkpoint", _HEADER, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, _payload_size
    )
    return ModelParams.from_flat(payload, d0, d, n_layers), DiffusionConfig(c, k_steps)
