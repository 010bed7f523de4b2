"""Signed random-walk diffusion: the iterative operator, an exact dense solver,
and the adjoint pass used for gradients.

Each node carries a positive-channel and a negative-channel feature vector.
One diffusion step propagates both channels along the normalized adjacency,
swapping channels across negative edges, and re-injects a c-weighted copy of
the local features into the positive channel:

    p_next = (1 - c) * (NA+^T p + NA-^T m) + c * h
    m_next = (1 - c) * (NA-^T p + NA+^T m)

The stacked state T = [p; m] contracts toward the unique fixed point at rate
(1 - c) per step, because the block operator's maximum column sum is at most 1:
its column sums are the row sums of S = NA+ + NA-, 1 at a node with
out-edges and 0 at a deadend.

The iteration runs on the sum and difference channels s = p + m and
d = p - m, which decouple:

    s_next = (1 - c) * S^T s + c * h,    S = NA+ + NA-
    d_next = (1 - c) * D^T d + c * h,    D = NA+ - NA-

Neither walk ever reads the other's state, so they run as two independent
n x d walks, one sparse product per step each, with no synchronization
between steps. The forward walks multiply by S.T and D.T, CSC views of the
stored CSR pair `na.adj` = (S, D) that copy nothing; the adjoint walks
multiply by S and D. When the process may run on two or more CPUs,
`diffuse` and `diffuse_adjoint` run the difference walk on a short-lived
worker thread while the calling thread runs the sum walk (scipy's
sparse-times-dense product releases the GIL). On a single usable CPU (per
the process's CPU affinity) both walks run inline, one after the other,
which measured faster there. The worker pool lives for one call: a pool
kept across calls would leave a thread behind that a forked child cannot
use. Each walk does the same arithmetic in either case, so the results are
bitwise the same. `diffusion_steps` advances both walks in lockstep on the
calling thread. The only other thread that runs code of this module is
`training.train`'s noise worker, which runs `_noise_state`; like the walk
worker it runs only private code, so no public function of the package
ever runs off the calling thread.

Column sums of |S^T| and |D^T| are at most 1, so the (1 - c)^K contraction
bound holds for each channel on its own. The p/m state is recovered once,
as p = (s + d) / 2 and m = (s - d) / 2, written into the two halves of one
n x 2d block [p || m]. `diffuse`, `diffusion_steps` and `exact_solve`
return the halves as views; the model's layers keep the block, which they
mix and the backward pass reads without a copy. `exact_solve` solves the two
channels' fixed points densely, for graphs of at most EXACT_MAX_N nodes;
the tests check it against the per-sign block system built from the graph.

The adjoint owns its inputs: its caller hands the gradient pair over in a
one-element list, so that `training.backward` has its n x 2d gradient freed
once the two start sums exist, and each walk scales its own start by c in
place and injects that instead of a copy. `diffuse` and `diffuse_adjoint`
check that their inputs are finite and raise ValueError. The model's layers
and `training.backward` call the same passes unchecked (`_diffuse`,
`_adjoint`): a layer checks its features itself and raises NumericError, and
`backward` checks the gradients it returns.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .graph import NormalizedAdjacency

# The largest node count `exact_solve` takes (each dense system <= 128 MiB).
EXACT_MAX_N = 4096


class DiffusionState(NamedTuple):
    p: np.ndarray  # positive-channel features, n x d
    m: np.ndarray  # negative-channel features, n x d


@dataclass(frozen=True)
class DiffusionConfig:
    c: float
    k_steps: int
    m0_mode: str = "uniform"  # "zero" or "uniform" in [-1, 1]

    def __post_init__(self):
        if not 0.0 < self.c < 1.0:
            raise ValueError(f"local injection ratio c must lie in (0, 1), got {self.c}")
        if self.k_steps < 1:
            raise ValueError(f"k_steps must be at least 1, got {self.k_steps}")
        if self.m0_mode not in ("zero", "uniform"):
            raise ValueError(f"m0_mode must be 'zero' or 'uniform', got {self.m0_mode!r}")


def _check_features(na: NormalizedAdjacency, h: np.ndarray) -> np.ndarray:
    h = np.asarray(h, dtype=np.float64)
    if h.ndim != 2 or h.shape[0] != na.n:
        raise ValueError(f"feature matrix must be {na.n} x d, got shape {h.shape}")
    if not np.all(np.isfinite(h)):
        raise ValueError("feature matrix contains non-finite entries")
    return h


def _restart_walk(op, start: list, inject, decay: float, k_steps: int):
    """Yield z_1 .. z_K of z' = decay * (op @ z) + inject on one n x d channel,
    one sparse product per step. `inject` is an n x d array, None (add
    nothing), or a float c for an inject of c * z_0: the walk then scales z_0
    by c in place once the first product has read it and injects that, so it
    keeps no copy. The decay is folded into a scaled copy of op's values once
    per walk, on op's own index arrays, so no step makes an extra pass over z.
    `start` is a one-element list holding z_0; the walk pops it, so that z_0
    is freed after the first step, or, with a float inject, is the walk's own
    to scale."""
    op = type(op)((op.data * decay, op.indices, op.indptr), shape=op.shape)
    z = start.pop()
    for step in range(k_steps):
        z_prev, z = z, op @ z
        if step == 0 and isinstance(inject, float):
            z_prev *= inject
            inject = z_prev
        del z_prev
        if inject is not None:
            z += inject
        yield z


def _last(walk):
    """Run a walk to its end and return its final state."""
    for z in walk:
        pass
    return z


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def _run_walks(walk_s, walk_d) -> tuple[np.ndarray, np.ndarray]:
    """Final states of the sum and difference walks. With two or more usable
    CPUs the difference walk runs on a worker thread meanwhile; the worker
    runs only the walk itself, never a public function of this package."""
    if _usable_cpus() < 2:
        return _last(walk_s), _last(walk_d)
    with ThreadPoolExecutor(max_workers=1) as worker:
        future_d = worker.submit(_last, walk_d)
        s = _last(walk_s)
        return s, future_d.result()


def _readout(s: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The p/m channels p = (s + d) / 2 and m = (s - d) / 2 of the
    sum/difference channels, written into the halves of one n x 2d block."""
    k = s.shape[1]
    pm = np.empty((s.shape[0], 2 * k))
    np.add(s, d, out=pm[:, :k])
    np.subtract(s, d, out=pm[:, k:])
    pm *= 0.5
    return pm


def _state(pm: np.ndarray) -> DiffusionState:
    """The two halves of an n x 2d block [p || m], as views."""
    k = pm.shape[1] // 2
    return DiffusionState(pm[:, :k], pm[:, k:])


def _forward_walks(na, h: np.ndarray, cfg: DiffusionConfig, rng):
    """Draw m0 and build the sum and difference walks from T0 = (h, m0),
    injecting c * h at every step. Returns (m0, walk_s, walk_d). In zero
    mode m0 is None and both walks start from h itself, which no walk
    writes to; in uniform mode m0 is a seeded draw in [-1, 1]."""
    if cfg.m0_mode == "zero":
        m0, start_s, start_d = None, h, h
    elif rng is None:
        raise ValueError("m0_mode='uniform' needs an rng")
    else:
        m0 = rng.uniform(-1.0, 1.0, size=h.shape)
        start_s, start_d = h + m0, h - m0
    inject = cfg.c * h
    decay = 1.0 - cfg.c
    return (
        m0,
        _restart_walk(na.adj[0].T, [start_s], inject, decay, cfg.k_steps),
        _restart_walk(na.adj[1].T, [start_d], inject, decay, cfg.k_steps),
    )


def _noise_state(na, shape: tuple[int, int], cfg: DiffusionConfig, rng) -> DiffusionState:
    """diffuse(na, np.zeros(shape), cfg, rng) in uniform mode, bit for bit,
    with the same single draw of m0 from rng: the K-step diffusion of T0 =
    (0, m0). With h = 0 there is nothing to inject, so the walks start from
    m0 and -m0 and add no c * h term; adding +0.0 would change no bit,
    because a sparse product starts from +0.0 and never yields -0.0. Both
    walks run inline, one after the other, and m0 and each walk's states are
    dropped as soon as they are spent. Runs no public function of this
    package, so `training.train` may call it on a worker thread."""
    m0 = rng.uniform(-1.0, 1.0, size=shape)
    start_d = [np.negative(m0)]
    start_s = [m0]
    del m0
    decay = 1.0 - cfg.c
    s = _last(_restart_walk(na.adj[0].T, start_s, None, decay, cfg.k_steps))
    d = _last(_restart_walk(na.adj[1].T, start_d, None, decay, cfg.k_steps))
    # The pair 0.5 * (s + d), 0.5 * (s - d): m overwrites d, and s is
    # freed before the halving passes.
    p = s + d
    m = np.subtract(s, d, out=d)
    del s, d
    p *= 0.5
    m *= 0.5
    return DiffusionState(p, m)


def diffusion_steps(
    na: NormalizedAdjacency,
    h_tilde: np.ndarray,
    cfg: DiffusionConfig,
    rng: np.random.Generator | None = None,
) -> Iterator[DiffusionState]:
    """Yield T0, T1, ..., T_K one step at a time. T0 is (h_tilde, m0), with
    m0 zero or a seeded uniform draw in [-1, 1] per cfg.m0_mode."""
    h = _check_features(na, h_tilde)
    m0, walk_s, walk_d = _forward_walks(na, h, cfg, rng)
    yield DiffusionState(h, np.zeros_like(h) if m0 is None else m0)
    for s, d in zip(walk_s, walk_d):
        yield _state(_readout(s, d))


def diffuse(
    na: NormalizedAdjacency,
    h_tilde: np.ndarray,
    cfg: DiffusionConfig,
    rng: np.random.Generator | None = None,
) -> DiffusionState:
    """Run the signed random-walk diffusion for cfg.k_steps steps.

    Kept beside `_diffuse` as the checked entry point (ValueError on bad
    input) that the oracle and acceptance tests call and that
    `benchmarks/spans.py` times."""
    return _state(_diffuse(na, _check_features(na, h_tilde), cfg, rng))


def _diffuse(na, h: np.ndarray, cfg: DiffusionConfig, rng) -> np.ndarray:
    """`diffuse` on n x d float64 features that the caller has checked to be
    finite, returned as the n x 2d block [p || m]."""
    # Slicing off m0 frees it: the walks hold their own start states.
    walks = _forward_walks(na, h, cfg, rng)[1:]
    return _readout(*_run_walks(*walks))


def exact_solve(na: NormalizedAdjacency, h_tilde: np.ndarray, c: float) -> DiffusionState:
    """Dense fixed-point solver on the two channels: (I - (1-c) S^T) s* = c h
    and (I - (1-c) D^T) d* = c h, returned as p* = (s* + d*) / 2 and
    m* = (s* - d*) / 2.

    Oracle-scale only; refuses graphs with n > EXACT_MAX_N. Both systems
    are nonsingular for c in (0, 1): the column sums of |S^T| and |D^T| are
    at most 1, so each matrix is strictly diagonally dominant by columns.
    """
    if not 0.0 < c < 1.0:
        raise ValueError(f"local injection ratio c must lie in (0, 1), got {c}")
    h_tilde = _check_features(na, h_tilde)
    if na.n > EXACT_MAX_N:
        raise ValueError(f"exact_solve is limited to n <= {EXACT_MAX_N}, got n={na.n}")

    def solve(op):
        lhs = -(1.0 - c) * op.T.toarray()
        lhs[np.diag_indices(na.n)] += 1.0
        return np.linalg.solve(lhs, c * h_tilde)

    return _state(_readout(*map(solve, na.adj)))


def diffuse_adjoint(
    na: NormalizedAdjacency,
    grad_p: np.ndarray,
    grad_m: np.ndarray,
    cfg: DiffusionConfig,
) -> np.ndarray:
    """Reverse-mode pass through the diffusion: d(loss)/d(h_tilde).

    The gradient is the positive-channel part of
    (M^K + c * (M^(K-1) + ... + I)) g with M = (1-c) B^T and g the stacked
    output gradient: the c-weighted injection at every step plus the initial
    positive channel (the local features). The initial negative channel is
    a constant, so its path is dropped. Horner's rule turns the polynomial
    into the forward recurrence with g re-injected, run on the sum and
    difference channels of g with the pair `adj`, one sparse product per
    step and channel.

    Kept beside `_adjoint` as the checked entry point (ValueError on bad
    input) that the oracle and acceptance tests call and that
    `benchmarks/spans.py` times.
    """
    grad_p = _check_features(na, grad_p)
    grad_m = _check_features(na, grad_m)
    if grad_p.shape != grad_m.shape:
        raise ValueError(f"gradient shapes differ: {grad_p.shape} vs {grad_m.shape}")
    return _adjoint(na, [(grad_p, grad_m)], cfg)


def _adjoint(na, grads: list, cfg: DiffusionConfig) -> np.ndarray:
    """`diffuse_adjoint` on a pair of equal-shape gradients that the caller
    vouches for. `grads` is a one-element list holding the pair
    (grad_p, grad_m); the adjoint pops it, so that a caller that keeps no
    other reference has the pair freed once the two start sums exist. Each
    walk then scales its own start by c in place and injects it."""
    grad_p, grad_m = grads.pop()
    start_s, start_d = [grad_p + grad_m], [grad_p - grad_m]
    del grad_p, grad_m
    c, decay = float(cfg.c), 1.0 - cfg.c  # a float inject: c * the walk's own start
    s, d = _run_walks(
        _restart_walk(na.adj[0], start_s, c, decay, cfg.k_steps),
        _restart_walk(na.adj[1], start_d, c, decay, cfg.k_steps),
    )
    s += d  # 0.5 * (s + d), in s's own memory
    s *= 0.5
    return s


def l1_distance(a: DiffusionState, b: DiffusionState) -> float:
    """Matrix L1 distance (max absolute column sum) between stacked states."""
    diff = np.vstack([a.p - b.p, a.m - b.m])
    return float(np.abs(diff).sum(axis=0).max())


def error_bound(t0: DiffusionState, t_star: DiffusionState, c: float, k_steps: int) -> float:
    """Contraction bound (1-c)^K * ||T* - T0||_1 on the K-step iteration error."""
    if t0.p.shape != t_star.p.shape or t0.m.shape != t_star.m.shape:
        raise ValueError("state shapes do not match")
    return (1.0 - c) ** k_steps * l1_distance(t_star, t0)
