"""Reverse-mode gradients for the whole model, the Adam optimizer, and the
full-batch epoch loop.

Layer 1 can read the input features' diffusion, computed once per training
graph (see `model.diffuse_inputs`), instead of diffusing x @ w_in @ w_t in
every epoch. Its backward pass then needs no adjoint: with W = w_in @ w_t and
G = x_p^T dp + x_m^T dm, the gradients are w_t: w_in^T G and
w_in: x^T dpre + G w_t^T.

`train` precomputes when it pays: the precompute diffuses d0 columns once,
and each epoch then runs d fewer diffusion columns in uniform mode (the
adjoint) and 2d fewer in zero mode (the forward and the adjoint). The cost
of a diffusion is linear in its column count, so the rule is
epochs * (columns saved per epoch) >= d0. The precomputed state holds
2 * n * d0 float64 for the whole run (270 MB at Epinions size, d0 = 128).

On that path in uniform mode, layer 1 still adds a fresh noise pair each
epoch: the diffusion of (0, m0), with m0 drawn from the training rng
(`diffusion._noise_state`). It does not depend on the parameters, so with
two or more usable CPUs `train` runs its epoch loop beside a one-thread
pool that draws and diffuses epoch e + 1's pair while the calling thread
runs epoch e's forward, loss, backward and Adam step. The draws keep the
direct path's rng order, layer 1 and then layers 2..L, epoch by epoch:
with one layer the next draw is submitted as soon as this epoch's pair is
taken, with more only after the forward pass, whose layers 2..L draw inside
it. On one usable CPU `model_forward` draws the pair inline. Either way the
losses and parameters are bitwise the same. The pool's thread is joined
when `train` returns or raises.

`backward` reads the operator, config, parameters and inputs from the
`ForwardCache` of the pass it differentiates, and spends it: it pops each
layer's entry as it reaches that layer, drops the layer's channel block and
h_next, and hands dpm over to the adjoint (see `diffusion`), so each
adjoint's walks share memory only with the layers below. A cache serves one
`backward`; a second call raises.
"""

from __future__ import annotations

import contextlib
import copy
import functools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import diffusion as _diffusion
from .diffusion import DiffusionConfig, DiffusionState
from .graph import SignedDigraph, normalize
from .model import (
    EdgeBatch,
    ForwardCache,
    ModelParams,
    NumericError,
    diffuse_inputs,
    edge_logits,
    init_params,
    loss_grad_logits,
    loss_total,
    model_forward,
)
from .seeding import spawn_seeds


def backward(
    cache: ForwardCache,
    batch: EdgeBatch,
    grad_logits: np.ndarray,
    weight_decay: float = 0.0,
) -> dict[str, np.ndarray]:
    """Exact gradients of the total loss for every parameter matrix, from the
    pass that built `cache` and `grad_logits`, its loss gradient on `batch`.

    Composes the head adjoint, each layer's tanh/skip/mixing adjoints, the
    diffusion adjoint, and the input projection adjoint, then adds the
    analytic 2 * weight_decay * W regularization term. If the forward pass
    read a precomputed `x_diffused`, layer 1's gradients come from it
    instead of an adjoint pass.

    Spends `cache`: each layer's entry is popped from `cache.layers`, and
    its channel block and h_next, and then dpm, are dropped before that
    layer's diffusion adjoint runs its walks. A second call on the same
    cache raises ValueError; run `forward_loss` (or `model_forward`) again
    for a new one.
    """
    params, x_diffused, layers = cache.params, cache.x_diffused, cache.layers
    if len(layers) != len(params.layers):
        raise ValueError(
            f"forward cache holds {len(layers)} of {len(params.layers)} layers;"
            " backward spends its cache, so run forward_loss again"
        )
    d = params.w_in.shape[1]
    h_final = layers[-1].h_next if layers else cache.h0
    g_u = _scatter_to_nodes(batch.uv[:, 0], grad_logits, h_final.shape[0])
    g_v = _scatter_to_nodes(batch.uv[:, 1], grad_logits, h_final.shape[0])

    grads: dict[str, np.ndarray] = {}
    grads["w_head"] = np.vstack([h_final.T @ g_u, h_final.T @ g_v])
    del h_final
    dh = g_u @ params.w_head[:d].T + g_v @ params.w_head[d:].T

    dw_in = 0.0  # w_in's gradient through layer 1's W = w_in @ w_t
    for i in reversed(range(len(params.layers))):
        layer = params.layers[i]
        h_prev, pm, h_next = layers.pop()
        dpre = h_next * h_next
        del h_next
        np.subtract(1.0, dpre, out=dpre)
        dpre *= dh
        del dh
        grads[f"layers.{i}.w_n"] = pm.T @ dpre
        del pm
        dpm = dpre @ layer.w_n.T
        if i == 0 and x_diffused is not None:
            dw = x_diffused.p.T @ dpm[:, :d] + x_diffused.m.T @ dpm[:, d:]
            grads[f"layers.{i}.w_t"] = params.w_in.T @ dw
            dw_in = dw @ layer.w_t.T
        else:
            # Handed over in a list (see `_diffusion._adjoint`), so that dpm
            # is freed once the adjoint's start sums exist.
            owned = [(dpm[:, :d], dpm[:, d:])]
            del dpm
            dh_tilde = _diffusion._adjoint(cache.na, owned, cache.cfg)
            grads[f"layers.{i}.w_t"] = h_prev.T @ dh_tilde
            dpre += dh_tilde @ layer.w_t.T  # the transform path joins the skip path
        dh = dpre

    grads["w_in"] = cache.x.T @ dh + dw_in

    if weight_decay:
        for name, w in params.named():
            grads[name] = grads[name] + 2.0 * weight_decay * w
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for {name}")
    return grads


def _scatter_to_nodes(ids: np.ndarray, rows: np.ndarray, n: int) -> np.ndarray:
    """Sum the rows of a b x k array into an n x k array by node id."""
    return np.stack(
        [np.bincount(ids, weights=col, minlength=n) for col in rows.T], axis=1
    )


class Adam:
    """Bias-corrected Adam; weight decay enters through the loss gradient."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8  # Kingma & Ba's values

    def __init__(self, lr: float):
        self.lr = lr
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(self, params: ModelParams, grads: dict[str, np.ndarray]) -> None:
        """Update every parameter matrix in place."""
        self.t += 1
        for name, w in params.named():
            g = grads[name]
            if name not in self.m:
                self.m[name] = np.zeros_like(w)
                self.v[name] = np.zeros_like(w)
            self.m[name] = self.beta1 * self.m[name] + (1 - self.beta1) * g
            self.v[name] = self.beta2 * self.v[name] + (1 - self.beta2) * g * g
            m_hat = self.m[name] / (1 - self.beta1**self.t)
            v_hat = self.v[name] / (1 - self.beta2**self.t)
            w -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def forward_loss(
    na,
    x: np.ndarray,
    params: ModelParams,
    cfg: DiffusionConfig,
    batch: EdgeBatch,
    weight_decay: float,
    rng: np.random.Generator | None = None,
    x_diffused: DiffusionState | None = None,
    noise: DiffusionState | None = None,
):
    """One forward pass through model, head, and loss."""
    h_final, cache = model_forward(
        na, x, params, cfg, rng=rng, x_diffused=x_diffused, noise=noise
    )
    logits = edge_logits(h_final, batch, params.w_head)
    loss = loss_total(logits, batch.signs, params, weight_decay)
    return loss, logits, cache


@dataclass
class ModelConfig:
    """The model and training settings of `train` and the experiment protocol."""

    dim: int = 32
    n_layers: int = 1
    c: float = 0.35
    k_steps: int = 10
    lr: float = 0.01
    weight_decay: float = 1e-3
    epochs: int = 100
    m0_mode: str = "uniform"

    def __post_init__(self):
        if self.dim < 1 or self.n_layers < 1:
            raise ValueError(f"dim and n_layers must be positive, got {self.dim}, {self.n_layers}")
        if not (0 <= self.lr < np.inf and 0 <= self.weight_decay < np.inf and self.epochs >= 0):
            raise ValueError(
                "lr and weight_decay must be finite and non-negative, and epochs non-negative;"
                f" got {self.lr}, {self.weight_decay}, {self.epochs}"
            )
        self.diffusion()  # validates c, k_steps, m0_mode

    def diffusion(self) -> DiffusionConfig:
        return DiffusionConfig(c=self.c, k_steps=self.k_steps, m0_mode=self.m0_mode)


@dataclass
class TrainConfig(ModelConfig):
    seed: int = 0


class TrainingAbort(NumericError):
    """Training hit a non-finite loss, gradient or parameter; carries the last
    good parameters, those the last loss in `history` was computed at."""

    def __init__(self, message, params, history):
        super().__init__(message)
        self.params = params
        self.history = history


def train(
    graph: SignedDigraph,
    x: np.ndarray,
    cfg: TrainConfig,
) -> tuple[ModelParams, list[float]]:
    """Full-batch training on all edges of `graph` (train edges only).

    One gradient step per epoch; the negative diffusion channel is redrawn
    each epoch in uniform mode. Layer 1 reads the input features' diffusion,
    computed once, when the epochs save more diffusion columns than it costs
    (see the module docstring). Returns the final parameters and the
    per-epoch loss history.
    """
    na = normalize(graph)
    batch = EdgeBatch.from_edges(graph.edges)
    dcfg = cfg.diffusion()
    init_seed, m0_seed = spawn_seeds(cfg.seed, 2)
    params = init_params(x.shape[1], cfg.dim, cfg.n_layers, seed=init_seed)
    rng = np.random.default_rng(m0_seed)
    optimizer = Adam(lr=cfg.lr)
    saved_per_epoch = cfg.dim if cfg.m0_mode == "uniform" else 2 * cfg.dim
    x_diffused = None
    # Non-finite features take the direct path, which aborts on them.
    if cfg.epochs * saved_per_epoch >= x.shape[1] and np.all(np.isfinite(x)):
        x_diffused = diffuse_inputs(na, x, dcfg)

    draw = None
    if x_diffused is not None and cfg.m0_mode == "uniform" and _diffusion._usable_cpus() >= 2:
        draw = functools.partial(_diffusion._noise_state, na, (graph.n, cfg.dim), dcfg, rng)

    history: list[float] = []
    last_good = copy.deepcopy(params)
    with ThreadPoolExecutor(max_workers=1) if draw else contextlib.nullcontext() as worker:
        pending = worker.submit(draw) if worker and cfg.epochs else None
        for epoch in range(cfg.epochs):
            draw_next = worker and epoch + 1 < cfg.epochs  # order: module docstring
            try:
                noise, pending = pending and pending.result(), None
                if draw_next and cfg.n_layers == 1:
                    pending = worker.submit(draw)
                loss, logits, cache = forward_loss(
                    na, x, params, dcfg, batch, cfg.weight_decay, rng=rng,
                    x_diffused=x_diffused, noise=noise,
                )
                del noise  # spent: layer 1 added it into its block
                if draw_next and cfg.n_layers > 1:
                    pending = worker.submit(draw)
                if not np.isfinite(loss):
                    raise NumericError(f"non-finite loss at epoch {epoch}")
                grads = backward(
                    cache, batch, loss_grad_logits(logits, batch.signs), cfg.weight_decay
                )
            except NumericError as exc:
                raise TrainingAbort(
                    f"training aborted at epoch {epoch}: {exc}", last_good, history
                ) from exc
            history.append(loss)
            last_good = copy.deepcopy(params)
            optimizer.step(params, grads)
            # Also on the last epoch, whose result no later loss would check.
            if not all(np.all(np.isfinite(w)) for _, w in params.named()):
                raise TrainingAbort(
                    f"training aborted at epoch {epoch}: non-finite parameters after the"
                    " Adam step", last_good, history,
                )
    return params, history

