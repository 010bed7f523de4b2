"""Signed random-walk diffusion: the iterative operator, an exact dense solver,
and the adjoint pass used for gradients.

Each node carries a positive-channel and a negative-channel feature vector.
One diffusion step propagates both channels along the normalized adjacency,
swapping channels across negative edges, and re-injects a c-weighted copy of
the local features into the positive channel:

    p_next = (1 - c) * (NA+^T p + NA-^T m) + c * h
    m_next = (1 - c) * (NA-^T p + NA+^T m)

The stacked state T = [p; m] contracts toward the unique fixed point at rate
(1 - c) per step, because the block operator's maximum column sum is at most 1
(see graph.column_sums_of_b).

The iteration runs on the sum and difference channels s = p + m and
d = p - m, which decouple:

    s_next = (1 - c) * S^T s + c * h,    S = NA+ + NA-
    d_next = (1 - c) * D^T d + c * h,    D = NA+ - NA-

S and D share one sparsity pattern, so a step is one sparse product with
blockdiag(S^T, D^T) on the stacked [s; d]. Column sums of |S^T| and |D^T|
are at most 1, so the (1 - c)^K contraction bound holds for each channel on
its own. The p/m state is recovered once, as p = (s + d) / 2 and
m = (s - d) / 2. `exact_solve` stays on the per-sign block operator, so it is
an independent oracle for this iteration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .graph import NormalizedAdjacency


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


def initial_state(
    na: NormalizedAdjacency,
    h_tilde: np.ndarray,
    cfg: DiffusionConfig,
    m0: np.ndarray | None = None,
    rng: np.random.Generator | None = None,
) -> DiffusionState:
    """Build T0: the positive channel starts at the local features, the
    negative channel at zero or a seeded uniform draw in [-1, 1]."""
    h_tilde = _check_features(na, h_tilde)
    if m0 is not None:
        m0 = _check_features(na, m0)
        if m0.shape != h_tilde.shape:
            raise ValueError(f"m0 shape {m0.shape} does not match features {h_tilde.shape}")
        return DiffusionState(h_tilde.copy(), m0.copy())
    if cfg.m0_mode == "zero":
        return DiffusionState(h_tilde.copy(), np.zeros_like(h_tilde))
    if rng is None:
        raise ValueError("m0_mode='uniform' needs an rng (or an explicit m0)")
    return DiffusionState(h_tilde.copy(), rng.uniform(-1.0, 1.0, size=h_tilde.shape))


def _restart_walk(op, z: np.ndarray, inject: tuple[np.ndarray, np.ndarray], decay: float,
                  k_steps: int):
    """Yield z_1 .. z_K of z' = decay * (op @ z) + inject on a stacked 2n x d
    state, one sparse product per step; inject[0] is added to the top half
    and inject[1] to the bottom half."""
    n = z.shape[0] // 2
    for _ in range(k_steps):
        z = op @ z
        z *= decay
        z[:n] += inject[0]
        z[n:] += inject[1]
        yield z


def _to_state(z: np.ndarray) -> DiffusionState:
    """Split a stacked [s; d] state back into the p/m channels."""
    s, d = np.split(z, 2)
    return DiffusionState(0.5 * (s + d), 0.5 * (s - d))


def _forward_walk(na, h_tilde, cfg, m0, rng):
    """T0 and the iterator over the stacked [s; d] states z_1 .. z_K."""
    t0 = initial_state(na, h_tilde, cfg, m0=m0, rng=rng)
    inject = cfg.c * t0.p
    z0 = np.concatenate([t0.p + t0.m, t0.p - t0.m])
    return t0, _restart_walk(na.fwd, z0, (inject, inject), 1.0 - cfg.c, cfg.k_steps)


def diffusion_steps(
    na: NormalizedAdjacency,
    h_tilde: np.ndarray,
    cfg: DiffusionConfig,
    m0: np.ndarray | None = None,
    rng: np.random.Generator | None = None,
) -> Iterator[DiffusionState]:
    """Yield T0, T1, ..., T_K one step at a time."""
    t0, walk = _forward_walk(na, h_tilde, cfg, m0, rng)
    yield t0
    for z in walk:
        yield _to_state(z)


def diffuse(
    na: NormalizedAdjacency,
    h_tilde: np.ndarray,
    cfg: DiffusionConfig,
    m0: np.ndarray | None = None,
    rng: np.random.Generator | None = None,
) -> DiffusionState:
    """Run the signed random-walk diffusion for cfg.k_steps steps."""
    _, walk = _forward_walk(na, h_tilde, cfg, m0, rng)
    for z in walk:
        pass
    return _to_state(z)


def exact_solve(na: NormalizedAdjacency, h_tilde: np.ndarray, c: float) -> DiffusionState:
    """Dense fixed-point solver: (I - (1-c) B) T* = c [h; 0].

    Oracle-scale only; refuses graphs with 2n > 4096. The system is always
    nonsingular for c in (0, 1) since the operator's spectral radius is at
    most 1.
    """
    if not 0.0 < c < 1.0:
        raise ValueError(f"local injection ratio c must lie in (0, 1), got {c}")
    h_tilde = _check_features(na, h_tilde)
    n = na.n
    if 2 * n > 4096:
        raise ValueError(f"exact_solve is limited to 2n <= 4096, got n={n}")

    ap_t = na.na_plus_t.toarray()
    an_t = na.na_minus_t.toarray()
    block = np.block([[ap_t, an_t], [an_t, ap_t]])
    lhs = np.eye(2 * n) - (1.0 - c) * block
    rhs = np.concatenate([c * h_tilde, np.zeros_like(h_tilde)], axis=0)
    try:
        t_star = np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError as exc:  # unreachable for c in (0,1)
        raise RuntimeError(f"fixed-point system unexpectedly singular: {exc}") from exc
    return DiffusionState(t_star[:n], t_star[n:])


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
    into the forward recurrence with g re-injected, run on the sum/difference
    channels of g with `adj`, one sparse product per step.
    """
    grad_p = _check_features(na, grad_p)
    grad_m = _check_features(na, grad_m)
    if grad_p.shape != grad_m.shape:
        raise ValueError(f"gradient shapes differ: {grad_p.shape} vs {grad_m.shape}")

    z = np.concatenate([grad_p + grad_m, grad_p - grad_m])
    inject = np.split(cfg.c * z, 2)
    for z in _restart_walk(na.adj, z, inject, 1.0 - cfg.c, cfg.k_steps):
        pass
    s, d = np.split(z, 2)
    return 0.5 * (s + d)


def l1_distance(a: DiffusionState, b: DiffusionState) -> float:
    """Matrix L1 distance (max absolute column sum) between stacked states."""
    diff = np.vstack([a.p - b.p, a.m - b.m])
    return float(np.abs(diff).sum(axis=0).max())


def error_bound(t0: DiffusionState, t_star: DiffusionState, c: float, k_steps: int) -> float:
    """Contraction bound (1-c)^K * ||T* - T0||_1 on the K-step iteration error."""
    if t0.p.shape != t_star.p.shape or t0.m.shape != t_star.m.shape:
        raise ValueError("state shapes do not match")
    return (1.0 - c) ** k_steps * l1_distance(t_star, t0)
