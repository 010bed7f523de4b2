"""Initial node features from a randomized truncated SVD of the signed adjacency.

The signed adjacency A = A_plus - A_minus keeps the sign information, and the
features are X = U * S for the leading singular triplets. This is a one-time
preprocessing step; features are persisted so training never repeats it.
"""

from __future__ import annotations

import struct

import numpy as np
import scipy.sparse as sp

from .atomic import atomic_write
from .graph import SignedDigraph

FEATURE_MAGIC = b"SGDF"
FEATURE_VERSION = 1


def randomized_svd(m, rank: int, oversample: int = 10, power_iters: int = 2, seed: int = 0):
    """Sketch-based truncated SVD (Gaussian range finder plus power iterations).

    Works on dense arrays and scipy sparse matrices. Deterministic for a fixed
    seed in single-threaded mode.

    Returns:
        (u, s, v) with orthonormal-column u (rows x rank) and v (cols x rank),
        and non-increasing singular values s (rank,).
    """
    n_rows, n_cols = m.shape
    min_dim = min(n_rows, n_cols)
    if rank < 1:
        raise ValueError(f"rank must be positive, got {rank}")
    if rank > min_dim:
        raise ValueError(f"rank {rank} exceeds matrix dimension {min_dim}")
    if oversample < 0:
        raise ValueError(f"oversample must be non-negative, got {oversample}")
    if rank + oversample > min_dim:
        raise ValueError(
            f"rank + oversample = {rank + oversample} exceeds matrix dimension {min_dim}"
        )
    data = m.data if sp.issparse(m) else m
    if not np.all(np.isfinite(data)):
        raise ValueError("matrix contains non-finite entries")

    rng = np.random.default_rng(seed)
    sketch = rank + oversample
    omega = rng.standard_normal((n_cols, sketch))

    q, _ = np.linalg.qr(m @ omega)
    for _ in range(power_iters):
        w, _ = np.linalg.qr(m.T @ q)
        q, _ = np.linalg.qr(m @ w)

    # b = q.T @ m, computed through the transpose so sparse m stays sparse.
    b = (m.T @ q).T
    ub, s, vt = np.linalg.svd(b, full_matrices=False)
    u = q @ ub

    u = np.ascontiguousarray(u[:, :rank])
    s = s[:rank].copy()
    v = np.ascontiguousarray(vt[:rank].T)

    # Fix the sign ambiguity of each singular vector pair: the largest-magnitude
    # entry of each left vector is made positive.
    for j in range(rank):
        i = int(np.argmax(np.abs(u[:, j])))
        if u[i, j] < 0:
            u[:, j] = -u[:, j]
            v[:, j] = -v[:, j]
    return u, s, v


def signed_adjacency(g: SignedDigraph) -> sp.csr_array:
    """CSR adjacency with +1 for positive and -1 for negative edges."""
    return sp.csr_array(g.a_plus - g.a_minus)


def init_features(
    g: SignedDigraph,
    rank: int,
    seed: int = 0,
    oversample: int = 10,
    power_iters: int = 2,
) -> np.ndarray:
    """Compute the n x rank feature matrix X = U * S for the signed adjacency.

    Oversampling is clipped so the sketch never exceeds the matrix dimension.
    """
    if rank < 1:
        raise ValueError(f"rank must be positive, got {rank}")
    if rank > g.n:
        raise ValueError(f"rank {rank} exceeds node count {g.n}")
    oversample = min(oversample, g.n - rank)
    u, s, _ = randomized_svd(
        signed_adjacency(g), rank, oversample=oversample, power_iters=power_iters, seed=seed
    )
    return u * s


def save_features(path, x: np.ndarray) -> None:
    """Write a feature matrix: magic, u32 version, u64 n, u64 d, row-major f64."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"feature matrix must be 2-D, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("feature matrix contains non-finite entries")
    with atomic_write(path, binary=True) as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<I", FEATURE_VERSION))
        fh.write(struct.pack("<QQ", x.shape[0], x.shape[1]))
        fh.write(x.astype("<f8").tobytes())


def load_features(path) -> np.ndarray:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != FEATURE_MAGIC:
            raise ValueError(f"{path}: not a feature file (magic {magic!r})")
        (version,) = struct.unpack("<I", fh.read(4))
        if version != FEATURE_VERSION:
            raise ValueError(f"{path}: unsupported feature file version {version}")
        n, d = struct.unpack("<QQ", fh.read(16))
        payload = fh.read(8 * n * d)
        if len(payload) != 8 * n * d:
            raise ValueError(f"{path}: truncated feature file")
        extra = fh.read(1)
        if extra:
            raise ValueError(f"{path}: trailing bytes after feature payload")
    x = np.frombuffer(payload, dtype="<f8").reshape(n, d).copy()
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{path}: feature matrix contains non-finite entries")
    return x
