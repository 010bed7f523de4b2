"""Initial node features from a randomized truncated SVD of the signed adjacency.

The graph's signed adjacency `SignedDigraph.a` = A+ - A- keeps the sign
information, and the features are X = U * S for its leading singular
triplets. This is a one-time preprocessing step; features are persisted so
training never repeats it.

`randomized_svd` is the Gaussian range finder with power iterations of
Halko, Martinsson & Tropp 2011 (arXiv:0909.4061, Algorithms 4.3/4.4 and 5.1).
Between power steps any well-conditioned basis of the sketch's range will do
(their section 4.5), so each step normalizes the sketch once with SVQB
(Stathopoulos & Wu 2002, "A block orthogonalization procedure with constant
synchronization requirements"): an eigendecomposition of the small Gram
matrix instead of a Householder QR of the tall sketch. The last sketch gets
an orthonormal basis Q from two SVQB passes when it is well conditioned,
which is orthonormal to working precision while eps * cond^2 << 1 (the bound
Yamamoto, Nakatsukasa, Yanagisawa & Fukaya 2015, ETNA 44, prove for
CholeskyQR2). The Rayleigh-Ritz step then takes the eigendecomposition of
the small Gram of A^T Q, as SVQB does, while A^T Q has cond < 1e4. A zero,
rank-deficient or wide-spectrum block takes a Householder QR instead, and
the Rayleigh-Ritz step then takes the SVD of a small square matrix.
"""

from __future__ import annotations

import os
import struct

import numpy as np
import scipy.sparse as sp

from .atomic import atomic_write
from .graph import SignedDigraph

FEATURE_MAGIC = b"SGDF"
FEATURE_VERSION = 1
_HEADER = struct.Struct("<4sIQQ")  # magic, version, n, d

# `_orthonormal` takes two SVQB passes, and the Rayleigh-Ritz step the Gram's
# eigendecomposition, while the Gram eigenvalues satisfy
# lambda_min > ratio * lambda_max, i.e. cond < 1e4: there eps * cond^2 stays
# near 2e-8, and the floor of `_svqb` (lambda_max * eps) cannot bind.
_SVQB_MIN_RATIO = 1e-8

OVERSAMPLE = 10  # extra sketch columns; Halko et al. 2011, section 4.2, find 10 ample


def _svqb(y: np.ndarray) -> np.ndarray:
    """A well-conditioned basis of range(y), by SVQB: y @ V diag(lambda)^(-1/2)
    from the eigendecomposition y^T y = V diag(lambda) V^T.

    Eigenvalues are floored at max(lambda_max * eps, tiny), so a zero or
    rank-deficient y gives finite columns instead of a division by zero. The
    result is orthonormal up to about eps * cond(y)^2, which is all a power
    step needs.
    """
    lam, vec = np.linalg.eigh(y.T @ y)
    info = np.finfo(y.dtype)
    floor = max(lam[-1] * info.eps, info.tiny)
    return y @ (vec / np.sqrt(np.maximum(lam, floor)))


def _orthonormal(y: np.ndarray) -> np.ndarray:
    """An orthonormal basis Q of range(y), with Q Q^T y = y.

    Two SVQB passes when cond(y) < 1e4 (see `_SVQB_MIN_RATIO`): the second
    pass restores the orthonormality the first loses to eps * cond^2. A zero,
    rank-deficient or wide-spectrum y takes a Householder QR, the only one of
    the two that is accurate there.
    """
    lam, vec = np.linalg.eigh(y.T @ y)
    if lam[0] > _SVQB_MIN_RATIO * lam[-1]:
        # The first pass reuses this eigendecomposition: it is `_svqb(y)`.
        return _svqb(y @ (vec / np.sqrt(lam)))
    return np.linalg.qr(y)[0]


def randomized_svd(
    m, rank: int, oversample: int = OVERSAMPLE, power_iters: int = 2, seed: int = 0
):
    """Sketch-based truncated SVD (Gaussian range finder plus power iterations).

    Works on dense arrays and scipy sparse matrices. Deterministic for a fixed
    seed in single-threaded mode.

    The sketch Y = A Omega is refined by `power_iters` steps
    Y <- A (A^T svqb(Y)), with one `_svqb` normalization per step (Halko,
    Martinsson & Tropp 2011, arXiv:0909.4061, section 4.5; SVQB after
    Stathopoulos & Wu 2002). The Rayleigh-Ritz step takes an orthonormal
    basis Q = `_orthonormal(Y)` and B^T = A^T Q. While the Gram
    B B^T = W diag(lambda) W^T has lambda_min > 1e-8 lambda_max, that is
    cond(B^T) < 1e4 (about 5 on the benchmark graphs), the top `rank` pairs
    give U = Q W, S = sqrt(lambda) and V = B^T W / S. Otherwise (a zero or
    rank-deficient matrix, or a spectrum wide enough that the Gram would
    lose it) B^T = Q2 C by a Householder QR and the SVD of the small
    C = Uc S Vc^T gives U = Q Vc and V = Q2 Uc.

    Accuracy limit: the Gram branch squares cond(B^T). A singular value
    sigma_j has relative error about eps * (sigma_1 / sigma_j)^2, against
    eps * sigma_1 / sigma_j on the Householder branch, and V is orthonormal
    to about eps * cond(B^T)^2, which at the switch (cond(B^T) near 1e4) is
    1e-8; U stays orthonormal to working precision. SVQB also squares the
    condition number of each sketch it normalizes: while the top rank +
    oversample singular values span less than about 1e10 the result matches
    a QR after every product; beyond that, singular vectors with sigma_j
    below about 1e-10 * sigma_1 lose accuracy, though the rank-`rank`
    reconstruction error stays of order sigma_(rank+1) + 1e-9 * sigma_1.

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
    y = m @ rng.standard_normal((n_cols, rank + oversample))
    for _ in range(power_iters):
        y = m @ (m.T @ _svqb(y))
    q = _orthonormal(y)
    del y

    # Rayleigh-Ritz on b = q^T m through its tall transpose b^T = m^T q, which
    # keeps a sparse m sparse.
    bt = m.T @ q
    lam, vec = np.linalg.eigh(bt.T @ bt)
    if lam[0] > _SVQB_MIN_RATIO * lam[-1]:
        # b b^T = vec diag(lam) vec^T, so u = q vec, s = sqrt(lam) and
        # v = b^T vec / s, in descending order.
        s = np.sqrt(lam[::-1][:rank])
        vec = np.ascontiguousarray(vec[:, ::-1][:, :rank])
        u = q @ vec
        del q
        v = bt @ vec
        del bt
        v /= s
    else:
        # A zero, rank-deficient or wide-spectrum b^T: b^T = q2 c with q2
        # from a Householder QR, and the SVD of the small c.
        q2 = np.linalg.qr(bt)[0]
        ur, s, ubt = np.linalg.svd(q2.T @ bt)
        del bt
        u = q @ ubt[:rank].T
        del q
        v = q2 @ ur[:, :rank]
        s = s[:rank].copy()

    _fix_signs(u, v)
    return u, s, v


def _fix_signs(u: np.ndarray, v: np.ndarray) -> None:
    """Fix the sign ambiguity of each singular vector pair in place: the
    largest-magnitude entry of each column of u (the first, on a tie) is made
    positive. The row of that entry is found from the column maxima and
    minima, so that no u-sized |u| array is made."""
    a = np.maximum(u.max(axis=0), -u.min(axis=0))
    top = np.argmax((u == a) | (u == -a), axis=0)
    flip = u[top, np.arange(u.shape[1])] < 0
    np.negative(u, out=u, where=flip)
    np.negative(v, out=v, where=flip)


def init_features(g: SignedDigraph, rank: int, seed: int = 0) -> np.ndarray:
    """Compute the n x rank feature matrix X = U * S for the signed adjacency.

    The recipe is fixed: `randomized_svd` with its two power steps and
    `OVERSAMPLE` extra sketch columns, clipped to n - rank.
    """
    if rank < 1:
        raise ValueError(f"rank must be positive, got {rank}")
    if rank > g.n:
        raise ValueError(f"rank {rank} exceeds node count {g.n}")
    u, s, _ = randomized_svd(g.a, rank, oversample=min(OVERSAMPLE, g.n - rank), seed=seed)
    return u * s


def save_features(path, x: np.ndarray) -> None:
    """Write a feature matrix: magic, u32 version, u64 n, u64 d, row-major f64."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"feature matrix must be 2-D, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("feature matrix contains non-finite entries")
    with atomic_write(path, binary=True) as fh:
        fh.write(_HEADER.pack(FEATURE_MAGIC, FEATURE_VERSION, *x.shape))
        fh.write(memoryview(x.astype("<f8", copy=False)).cast("B"))


def load_features(path) -> np.ndarray:
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise ValueError(f"{path}: truncated feature file header")
        magic, version, n, d = _HEADER.unpack(header)
        if magic != FEATURE_MAGIC:
            raise ValueError(f"{path}: not a feature file (magic {magic!r})")
        if version != FEATURE_VERSION:
            raise ValueError(f"{path}: unsupported feature file version {version}")
        # Checked first, so that a corrupt header cannot ask for the memory.
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if 8 * n * d > left:
            raise ValueError(f"{path}: truncated feature file")
        if 8 * n * d < left:
            raise ValueError(f"{path}: trailing bytes after feature payload")
        x = np.fromfile(fh, dtype="<f8", count=n * d).reshape(n, d)
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{path}: feature matrix contains non-finite entries")
    return x
