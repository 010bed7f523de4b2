"""Reverse-mode gradients for the whole model, the Adam optimizer, and the
full-batch epoch loop.

The parameters and their gradients are each one vector, `ModelParams.flat`,
which Adam, the weight decay, the finiteness checks and the last-good
snapshot read whole.

The precompute rule: `train` runs layer 1 from `model.diffuse_inputs` (see
`model`) when that pays. The precompute diffuses d0 columns once; each
epoch then diffuses d fewer columns in uniform mode (the adjoint) and 2d
fewer in zero mode (the forward and the adjoint). The cost of a diffusion
is linear in its column count, so `train` precomputes when
epochs * (columns saved per epoch) >= d0, and holds the rows to the end.

The noise worker: on that path in uniform mode, layer 1 adds a fresh noise
pair each epoch, drawn from the training rng (`diffusion._noise_state`).
It does not depend on the parameters, so with two or more usable CPUs a
one-thread pool that lives for one `train` call draws and diffuses epoch
e + 1's pair while the calling thread runs epoch e. The draws keep the
direct path's rng order, layer 1 and then layers 2..L: with one layer the
next draw is submitted as soon as this epoch's pair is taken, with more
only after the forward pass. On one usable CPU `model_forward` draws the
pair inline. Either way the losses and parameters are bitwise the same.
The pool's thread is joined when `train` returns or raises.

The loop drops each epoch's logits before `backward` runs, and the spent
cache and logit gradient once it returns, so none of them is alive when
the next epoch's arrays are made.
"""

from __future__ import annotations

import contextlib
import functools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import diffusion as _diffusion
from .diffusion import DiffusionConfig
from .graph import EdgeList, SignedDigraph, normalize
from .model import (
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
    edges: EdgeList,
    grad_logits: np.ndarray,
    weight_decay: float = 0.0,
) -> ModelParams:
    """Exact gradients of the total loss, with the 2 * weight_decay * W
    term, from the pass that built `cache` and `grad_logits`, its loss
    gradient on `edges`, written into the views of one new `ModelParams`.
    Layer 1 of a precomputed pass needs no adjoint (see `model`).

    Spends `cache`: each layer's entry is popped from `cache.layers`, and
    its channel block, h_next and the block's gradient [dp || dm], which
    the adjoint takes over, are dropped before that layer's adjoint walks.
    A second call on the same cache raises ValueError.
    """
    params, x_diffused, layers = cache.params, cache.x_diffused, cache.layers
    if len(layers) != len(params.layers):
        raise ValueError(
            f"forward cache holds {len(layers)} of {len(params.layers)} layers;"
            " backward spends its cache, so run forward_loss again"
        )
    d = params.w_in.shape[1]
    h_final = layers[-1].h_next
    g_u = _scatter_to_nodes(edges.src, grad_logits, h_final.shape[0])
    g_v = _scatter_to_nodes(edges.dst, grad_logits, h_final.shape[0])

    grads = ModelParams.from_flat(None, *params.dims)
    np.matmul(h_final.T, g_u, out=grads.w_head[:d])
    np.matmul(h_final.T, g_v, out=grads.w_head[d:])
    del h_final
    dh = g_u @ params.w_head[:d].T + g_v @ params.w_head[d:].T

    dw_in = 0.0  # w_in's gradient through layer 1's W = w_in @ w_t
    for i in reversed(range(len(params.layers))):
        layer, grad = params.layers[i], grads.layers[i]
        h_prev, pm, h_next = layers.pop()
        dpre = h_next * h_next
        del h_next
        np.subtract(1.0, dpre, out=dpre)
        dpre *= dh
        del dh
        np.matmul(pm.T, dpre, out=grad.w_n)
        del pm
        # dpre @ w_n^T is [dp || dm]; the adjoint frees it (see `_diffusion._adjoint`).
        if i == 0 and x_diffused is not None:
            dw = x_diffused.T @ (dpre @ layer.w_n.T).reshape(-1, d)  # x_p^T dp + x_m^T dm
            np.matmul(params.w_in.T, dw, out=grad.w_t)
            dw_in = dw @ layer.w_t.T
        else:
            dh_tilde = _diffusion._adjoint(cache.na, [dpre @ layer.w_n.T], cache.cfg)
            np.matmul(h_prev.T, dh_tilde, out=grad.w_t)
            dpre += dh_tilde @ layer.w_t.T  # the transform path joins the skip path
        dh = dpre

    np.matmul(cache.x.T, dh, out=grads.w_in)
    grads.w_in += dw_in

    if weight_decay:
        grads.flat += 2.0 * weight_decay * params.flat
    if not np.all(np.isfinite(grads.flat)):  # named in the order formed: head first
        name = next(n for n, g in reversed(grads.named()) if not np.all(np.isfinite(g)))
        raise NumericError(f"non-finite gradient for {name}")
    return grads


def _scatter_to_nodes(ids: np.ndarray, rows: np.ndarray, n: int) -> np.ndarray:
    """Sum the rows of a b x k array into an n x k array by node id."""
    return np.stack(
        [np.bincount(ids, weights=col, minlength=n) for col in rows.T], axis=1
    )


class Adam:
    """Bias-corrected Adam on `ModelParams.flat`; weight decay enters through
    the loss gradient. The moments start at 0.0, bitwise as zero vectors."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8  # Kingma & Ba's values

    def __init__(self, lr: float):
        self.lr = lr
        self.t = 0
        self.m = self.v = 0.0

    def step(self, params: ModelParams, grads: ModelParams) -> None:
        """Update `params.flat` in place."""
        self.t += 1
        g = grads.flat
        self.m = self.beta1 * self.m + (1 - self.beta1) * g
        self.v = self.beta2 * self.v + (1 - self.beta2) * g * g
        m_hat = self.m / (1 - self.beta1**self.t)
        v_hat = self.v / (1 - self.beta2**self.t)
        params.flat -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def forward_loss(
    na,
    x: np.ndarray,
    params: ModelParams,
    cfg: DiffusionConfig,
    edges: EdgeList,
    weight_decay: float,
    rng: np.random.Generator | None = None,
    x_diffused: np.ndarray | None = None,
    noise: list | None = None,
):
    """One forward pass through model, head, and loss on `edges`;
    `x_diffused` and `noise` as in `model_forward`."""
    h_final, cache = model_forward(
        na, x, params, cfg, rng=rng, x_diffused=x_diffused, noise=noise
    )
    logits = edge_logits(h_final, edges, params.w_head)
    loss = loss_total(logits, edges.sign, params, weight_decay)
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
    """Full-batch training on all edges of `graph`, one Adam step per epoch
    (see the module docstring). Returns the final parameters and the
    per-epoch loss history; raises TrainingAbort on a non-finite value.
    """
    na, edges = normalize(graph), graph.edges
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
    last_good = params.copy()
    with ThreadPoolExecutor(max_workers=1) if draw else contextlib.nullcontext() as worker:
        pending = worker.submit(draw) if worker and cfg.epochs else None
        for epoch in range(cfg.epochs):
            draw_next = worker and epoch + 1 < cfg.epochs  # order: module docstring
            try:
                # Layer 1 pops the pair from the list (see `model_forward`).
                noise, pending = pending and [pending.result()], None
                if draw_next and cfg.n_layers == 1:
                    pending = worker.submit(draw)
                loss, logits, cache = forward_loss(
                    na, x, params, dcfg, edges, cfg.weight_decay, rng=rng,
                    x_diffused=x_diffused, noise=noise,
                )
                if draw_next and cfg.n_layers > 1:
                    pending = worker.submit(draw)
                if not np.isfinite(loss):
                    raise NumericError(f"non-finite loss at epoch {epoch}")
                grad_logits = loss_grad_logits(logits, edges.sign)
                del logits  # not alive through `backward`
                grads = backward(cache, edges, grad_logits, cfg.weight_decay)
                del cache, grad_logits  # spent; not alive through the next forward
            except NumericError as exc:
                raise TrainingAbort(
                    f"training aborted at epoch {epoch}: {exc}", last_good, history
                ) from exc
            history.append(loss)
            last_good = params.copy()
            optimizer.step(params, grads)
            # Also on the last epoch, whose result no later loss would check.
            if not np.all(np.isfinite(params.flat)):
                raise TrainingAbort(
                    f"training aborted at epoch {epoch}: non-finite parameters after the"
                    " Adam step", last_good, history,
                )
    return params, history

