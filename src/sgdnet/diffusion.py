"""Signed random-walk diffusion: the walks, an exact dense solver, and the
adjoint pass used for gradients.

Each node carries a positive channel p and a negative channel m. One step
swaps the channels across negative edges and re-injects c * h into p:

    p_next = (1 - c) * (NA+^T p + NA-^T m) + c * h
    m_next = (1 - c) * (NA-^T p + NA+^T m)

The sum and difference channels s = p + m and d = p - m decouple into two
walks on the stored pair `na.adj` = (S, D), S = NA+ + NA-, D = NA+ - NA-:

    s_next = (1 - c) * S^T s + c * h,    d_next = (1 - c) * D^T d + c * h

Column sums of |S^T| and |D^T| are at most 1, so each channel contracts at
rate (1 - c) per step: the (1 - c)^K error bound. The forward walks
multiply by S.T and D.T, views that copy nothing, and the adjoint walks by
S and D. p = (s + d) / 2 and m = (s - d) / 2 are formed once, at the end,
in the two halves of one n x 2d block [p || m].

The walk worker: neither walk reads the other's state, so with two or more
usable CPUs (by CPU affinity) the forward pass and the adjoint run the
difference walk on a one-thread pool while the calling thread runs the sum
walk; scipy's sparse product releases the GIL. On one CPU both run inline,
which measured faster. The pool lives for one call: a pool kept across
calls would leave a thread that a forked child cannot use. Each walk does
the same arithmetic either way, so results are bitwise equal on any CPU
count. No public function of the package runs off the calling thread.

The adjoint walks each channel in blocks of `_ADJOINT_BLOCK` columns, so
a walk holds one block's inject and states beside its start, not three
whole-width arrays. A sparse product computes each column on its own, so
the blocks change no output bit. Blocking the forward walks measured slower
and saved little.

A walk owns its start and rebinds it at the first step, which frees it
unless the caller keeps it. A plain call's caller holds each argument until
the call returns, so a call that should free an input pops it from a
one-element list. Every step multiplies by the operator with the decay
1 - c folded into its values, which `_decayed` builds once per channel of
a call: one copy of a channel's values, however many walks or blocks use it.
"""

from __future__ import annotations

import contextlib
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .graph import NormalizedAdjacency

# The largest node count `exact_solve` takes (each dense system <= 128 MiB).
EXACT_MAX_N = 4096

# Columns per block walk of `_adjoint`. On the half-Epinions training graph
# (n = 65,914, K = 10, c = 0.55, an n x 64 block, 2 CPUs of a Xeon, one BLAS
# thread, 12 interleaved runs) the adjoint's median took 280, 233, 260 and
# 274 ms at 4, 8, 16 and 32 (whole-width) columns, with equal outputs.
_ADJOINT_BLOCK = 8


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


def _decayed(op, cfg: DiffusionConfig):
    """(1 - c) * op: scaled values over op's own index arrays. A walk steps
    with it, so that no step makes an extra pass over its state."""
    return type(op)((op.data * (1.0 - cfg.c), op.indices, op.indptr), shape=op.shape)


def _restart_walk(op, z: np.ndarray, inject, cfg: DiffusionConfig):
    """Yield z_1 .. z_K of z' = op @ z + inject from the start z_0 = `z`,
    for an op that `_decayed` made: (1 - c) * (op' @ z) + inject for the
    op' it scaled. `inject` is an array, None (add nothing), or the float c
    for c * z_0, which the walk makes by scaling z_0 in place once the
    first product has read it."""
    for step in range(cfg.k_steps):
        z_prev, z = z, op @ z
        if step == 0 and isinstance(inject, float):
            z_prev *= inject
            inject = z_prev
        del z_prev
        if inject is not None:
            z += inject
        yield z


def _block_walks(op, z: np.ndarray, cfg: DiffusionConfig):
    """Walk the start `z` with the inject c * z_0, `_ADJOINT_BLOCK` columns
    at a time, and yield `z` holding the final states. Each block walks a
    contiguous copy of its columns, written back at its end: contiguous
    block copies beat strided views of `z`."""
    c = float(cfg.c)  # a float inject: c * the block's own start
    op = _decayed(op, cfg)
    for j in range(0, z.shape[1], _ADJOINT_BLOCK):
        cols = z[:, j:j + _ADJOINT_BLOCK]
        # A block of all of z is z itself, which the walk may scale in place.
        for state in _restart_walk(op, np.ascontiguousarray(cols), c, cfg):
            pass
        cols[...] = state
        del state  # not alive through the next block's walk
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


def _worker():
    """A one-thread pool for one `with` block with two or more usable CPUs,
    else a null context whose value is None."""
    return ThreadPoolExecutor(max_workers=1) if _usable_cpus() >= 2 else contextlib.nullcontext()


def _run_walks(walk_s, walk_d) -> tuple[np.ndarray, np.ndarray]:
    """Final states of the sum and difference walks, on the walk worker
    with two or more usable CPUs."""
    with _worker() as worker:
        if worker is None:
            return _last(walk_s), _last(walk_d)
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


def _draw_m0(shape: tuple[int, int], cfg: DiffusionConfig, rng) -> np.ndarray | None:
    """The negative channel's start m0: None in zero mode, else rng.uniform(-1, 1)."""
    if cfg.m0_mode == "zero":
        return None
    if rng is None:
        raise ValueError("m0_mode='uniform' needs an rng")
    return rng.uniform(-1.0, 1.0, size=shape)


def _forward_walks(na, owned: list, cfg: DiffusionConfig, m0: np.ndarray | None):
    """The sum and difference walks from T0 = (h, m0), injecting c * h, for
    the h popped from `owned`. In uniform mode they write h - m0 into m0 and
    c * h into h. In zero mode m0 is None and both walks start from h, which
    none writes and which, unless the caller keeps it, is freed once both
    have taken a step."""
    h = owned.pop()
    if m0 is None:
        start_s = start_d = h
        inject = cfg.c * h
    else:
        start_s = h + m0
        start_d = np.subtract(h, m0, out=m0)
        inject = np.multiply(h, cfg.c, out=h)
    return (_restart_walk(_decayed(na.adj[0].T, cfg), start_s, inject, cfg),
            _restart_walk(_decayed(na.adj[1].T, cfg), start_d, inject, cfg))


def _noise_state(na, shape: tuple[int, int], cfg: DiffusionConfig, rng) -> DiffusionState:
    """diffuse(na, np.zeros(shape), cfg, rng) in uniform mode, bit for bit,
    from the same single draw of m0. The walks start from m0 and -m0 and
    inject nothing: a sparse product never yields -0.0, so adding +0.0
    would change no bit. Both walks run inline, one channel's operator at a
    time, and m0 and each spent state are freed at once."""
    m0 = _draw_m0(shape, cfg, rng)
    walk_s = _restart_walk(_decayed(na.adj[0].T, cfg), m0, None, cfg)
    start_d = [np.negative(m0)]
    del m0
    s = _last(walk_s)
    d = _last(_restart_walk(_decayed(na.adj[1].T, cfg), start_d.pop(), None, cfg))
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
    """Yield T0, T1, ..., T_K, both walks in lockstep on the calling thread.
    T0 is (h_tilde, m0), m0 zero or drawn from U(-1, 1) per cfg.m0_mode.
    T0 and h_tilde stay as they are."""
    h = _check_features(na, h_tilde)
    m0 = _draw_m0(h.shape, cfg, rng)
    if m0 is None:
        walk_s, walk_d = _forward_walks(na, [h], cfg, None)
    else:  # uniform-mode walks write into their h and m0
        walk_s, walk_d = _forward_walks(na, [h.copy()], cfg, m0.copy())
    yield DiffusionState(h, np.zeros_like(h) if m0 is None else m0)
    for s, d in zip(walk_s, walk_d):
        yield _state(_readout(s, d))


def diffuse(
    na: NormalizedAdjacency,
    h_tilde: np.ndarray,
    cfg: DiffusionConfig,
    rng: np.random.Generator | None = None,
) -> DiffusionState:
    """T_K of the diffusion; raises ValueError on non-finite features.
    h_tilde stays as it is: uniform-mode walks write into a copy."""
    h = _check_features(na, h_tilde)
    return _state(_diffuse(na, [h.copy() if cfg.m0_mode == "uniform" else h], cfg, rng))


def _diffuse(na, owned: list, cfg: DiffusionConfig, rng) -> np.ndarray:
    """`diffuse` on the features popped from `owned`, which the caller has
    checked and the walks may write (`_forward_walks`), as the block [p || m]."""
    walks = _forward_walks(na, owned, cfg, _draw_m0(owned[0].shape, cfg, rng))
    return _readout(*_run_walks(*walks))


def exact_solve(na: NormalizedAdjacency, h_tilde: np.ndarray, c: float) -> DiffusionState:
    """The fixed point T*, from the dense systems (I - (1-c) S^T) s* = c h
    and (I - (1-c) D^T) d* = c h, for graphs of at most EXACT_MAX_N nodes.
    Both are nonsingular for c in (0, 1): the column sums of |S^T| and
    |D^T| are at most 1, so each is strictly diagonally dominant by columns.
    """
    DiffusionConfig(c=c, k_steps=1)  # raises on a bad c
    h_tilde = _check_features(na, h_tilde)
    if na.n > EXACT_MAX_N:
        raise ValueError(f"exact_solve is limited to n <= {EXACT_MAX_N}, got n={na.n}")

    def solve(op):
        lhs = -(1.0 - c) * op.T.toarray()
        lhs[np.diag_indices(na.n)] += 1.0
        return np.linalg.solve(lhs, c * h_tilde)

    return _state(_readout(*map(solve, na.adj)))


def _adjoint(na, owned: list, cfg: DiffusionConfig) -> np.ndarray:
    """Reverse-mode pass through the diffusion: d(loss)/d(h_tilde).

    The gradient is the positive-channel part of
    (M^K + c * (M^(K-1) + ... + I)) g, with M = (1-c) B^T and g the stacked
    output gradient; the initial negative channel is a constant, so its
    path is dropped. Horner's rule turns this into the walk recurrence with
    g re-injected, run on the sum and difference of g with the pair (S, D).

    Pops the float64 block [grad_p || grad_m] from `owned` and never writes
    to it, so it is freed once the two start sums exist, before the walks.
    """
    g = owned.pop()
    k = g.shape[1] // 2
    walks = (_block_walks(na.adj[0], g[:, :k] + g[:, k:], cfg),
             _block_walks(na.adj[1], g[:, :k] - g[:, k:], cfg))
    del g
    s, d = _run_walks(*walks)
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
