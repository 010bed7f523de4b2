"""Shared test utilities: dataset discovery and independent oracles."""

import os

import numpy as np

_HERE = os.path.dirname(os.path.abspath(__file__))
DATA_DIR = os.environ.get("SGDNET_DATA", os.path.join(_HERE, "..", "data"))


def dataset_path(*names):
    """First existing file among `names` inside the data directory, else None."""
    for name in names:
        path = os.path.join(DATA_DIR, name)
        if os.path.exists(path):
            return path
    return None


def bitcoin_alpha_path():
    return dataset_path(
        "soc-sign-bitcoinalpha.csv", "bitcoin-alpha.csv", "bitcoin_alpha.csv"
    )


def bitcoin_otc_path():
    return dataset_path(
        "soc-sign-bitcoinotc.csv", "bitcoin-otc.csv", "bitcoin_otc.csv"
    )


def jacobi_svd(a, tol=1e-12, max_sweeps=60):
    """One-sided Jacobi SVD of a dense matrix; independent of numpy.linalg.svd.

    Returns singular values in non-increasing order. Used as the oracle for
    truncated-approximation error checks.
    """
    w = np.array(a, dtype=np.float64, copy=True)
    n_cols = w.shape[1]
    # Huge zeta overflows to inf and then yields a harmless identity rotation.
    with np.errstate(over="ignore"):
        for _ in range(max_sweeps):
            off = 0.0
            for i in range(n_cols - 1):
                for j in range(i + 1, n_cols):
                    col_i = w[:, i]
                    col_j = w[:, j]
                    alpha = col_i @ col_i
                    beta = col_j @ col_j
                    gamma = col_i @ col_j
                    if abs(gamma) <= tol * np.sqrt(alpha * beta) or gamma == 0.0:
                        continue
                    off = max(off, abs(gamma))
                    zeta = (beta - alpha) / (2.0 * gamma)
                    t = np.sign(zeta) / (abs(zeta) + np.hypot(1.0, zeta))
                    cs = 1.0 / np.hypot(1.0, t)
                    sn = cs * t
                    new_i = cs * col_i - sn * col_j
                    new_j = sn * col_i + cs * col_j
                    w[:, i] = new_i
                    w[:, j] = new_j
            if off == 0.0:
                break
    sigma = np.sqrt((w * w).sum(axis=0))
    return np.sort(sigma)[::-1][: min(w.shape)]


def brute_force_auc(scores, labels):
    """Pairwise AUC: every (positive, negative) score pair, ties worth 1/2."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels > 0]
    neg = scores[labels <= 0]
    total = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                total += 1.0
            elif sp == sn:
                total += 0.5
    return total / (len(pos) * len(neg))


def dense_block_operator(na):
    """Explicit 2n x 2n diffusion operator, for small-graph oracles only."""
    ap_t = na.na_plus_t.toarray()
    an_t = na.na_minus_t.toarray()
    return np.block([[ap_t, an_t], [an_t, ap_t]])


def reference_diffusion_states(na, h, c, k_steps, m0):
    """T0 .. T_K of the literal per-sign recurrence, four sparse products a
    step, for checking the fused sum/difference iteration."""
    ap_t, an_t = na.na_plus_t, na.na_minus_t
    p, m = h, m0
    states = [(p, m)]
    for _ in range(k_steps):
        p, m = (
            (1 - c) * (ap_t @ p + an_t @ m) + c * h,
            (1 - c) * (an_t @ p + ap_t @ m),
        )
        states.append((p, m))
    return states


def reference_diffuse_adjoint(na, grad_p, grad_m, c, k_steps):
    """Literal per-sign adjoint recurrence: accumulate c * grad_p at every
    step, propagate with the transposed block operator, add the final
    positive-channel gradient."""
    ap, an = na.na_plus_t.T, na.na_minus_t.T
    gp, gm = grad_p, grad_m
    grad_h = np.zeros_like(grad_p)
    for _ in range(k_steps):
        grad_h = grad_h + c * gp
        gp, gm = (
            (1 - c) * (ap @ gp + an @ gm),
            (1 - c) * (an @ gp + ap @ gm),
        )
    return grad_h + gp


def reference_randomized_svd(m, rank, oversample=10, power_iters=2, seed=0):
    """The randomized SVD with a Householder QR after every product and the
    SVD of the wide B = Q^T A, sign-fixed column by column. Same Gaussian
    sketch as `sgdnet.features.randomized_svd`, so the two agree up to the
    normalizer's rounding; an oracle for the SVQB power steps."""
    rng = np.random.default_rng(seed)
    omega = rng.standard_normal((m.shape[1], rank + oversample))
    q, _ = np.linalg.qr(m @ omega)
    for _ in range(power_iters):
        w, _ = np.linalg.qr(m.T @ q)
        q, _ = np.linalg.qr(m @ w)
    b = (m.T @ q).T
    ub, s, vt = np.linalg.svd(b, full_matrices=False)
    u = np.ascontiguousarray((q @ ub)[:, :rank])
    s = s[:rank].copy()
    v = np.ascontiguousarray(vt[:rank].T)
    for j in range(rank):
        i = int(np.argmax(np.abs(u[:, j])))
        if u[i, j] < 0:
            u[:, j] = -u[:, j]
            v[:, j] = -v[:, j]
    return u, s, v
