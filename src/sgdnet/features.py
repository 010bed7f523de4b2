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

`randomized_svd` and `init_features` share one core, `_svd`, which frees
each n x (rank + oversample) array as soon as the next one exists.
`init_features` never forms the right factor V, so on the Gram branch it
holds at most two such arrays at a time: the sketch and its product, or Q
and U.

`_write_artifact` and `_read_artifact` hold the binary container and its
checks for both the feature file and `model`'s checkpoint.
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


def _orthonormal(owned: list) -> np.ndarray:
    """An orthonormal basis Q of range(y), with Q Q^T y = y, for the y
    popped from `owned`, so that y is freed after the first SVQB pass.

    Two SVQB passes when cond(y) < 1e4 (see `_SVQB_MIN_RATIO`): the second
    pass restores the orthonormality the first loses to eps * cond^2. A zero,
    rank-deficient or wide-spectrum y takes a Householder QR, the only one of
    the two that is accurate there.
    """
    y = owned.pop()
    lam, vec = np.linalg.eigh(y.T @ y)
    if lam[0] > _SVQB_MIN_RATIO * lam[-1]:
        # The first pass reuses this eigendecomposition: it is `_svqb(y)`.
        y = y @ (vec / np.sqrt(lam))
        return _svqb(y)
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
    C = Uc S Vc^T gives U = Q Vc and V = Q2 Uc. Each pair's sign is then
    fixed by `_sign_flips`.

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
    u, s, v = _svd(m, rank, oversample, power_iters, seed, right=True)
    flip = _sign_flips(u)
    np.negative(u, out=u, where=flip)
    np.negative(v, out=v, where=flip)
    return u, s, v


def _svd(m, rank, oversample, power_iters, seed, right):
    """`randomized_svd` before its sign fix: (u, s, v), with v None unless
    `right`.

    The sketch lives only in a list that each product pops, so that each
    step frees the array it reads. The Rayleigh-Ritz step holds a third
    sketch-sized array only with `right` or on the Householder branch.
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
    sketch = [m @ rng.standard_normal((n_cols, rank + oversample))]
    for _ in range(power_iters):
        sketch.append(m @ (m.T @ _svqb(sketch.pop())))
    q = _orthonormal(sketch)

    # Rayleigh-Ritz on b = q^T m through its tall transpose b^T = m^T q, which
    # keeps a sparse m sparse.
    bt = m.T @ q
    lam, vec = np.linalg.eigh(bt.T @ bt)
    v = None
    if lam[0] > _SVQB_MIN_RATIO * lam[-1]:
        # b b^T = vec diag(lam) vec^T, so u = q vec, s = sqrt(lam) and
        # v = b^T vec / s, in descending order.
        s = np.sqrt(lam[::-1][:rank])
        vec = np.ascontiguousarray(vec[:, ::-1][:, :rank])
        if right:
            v = bt @ vec
            v /= s
        del bt
        u = q @ vec
    else:
        # A zero, rank-deficient or wide-spectrum b^T: b^T = q2 c with q2
        # from a Householder QR, and the SVD of the small c.
        q2 = np.linalg.qr(bt)[0]
        ur, s, ubt = np.linalg.svd(q2.T @ bt)
        del bt
        if right:
            v = q2 @ ur[:, :rank]
        del q2
        u = q @ ubt[:rank].T
        s = s[:rank].copy()
    return u, s, v


def _sign_flips(u: np.ndarray) -> np.ndarray:
    """The columns of u whose largest-magnitude entry (the first, on a tie)
    is negative: negating them, and the matching columns of v, fixes the
    sign ambiguity of each singular pair. The row of that entry is found
    from the column maxima and minima, so that no u-sized |u| array is
    made."""
    a = np.maximum(u.max(axis=0), -u.min(axis=0))
    top = np.argmax((u == a) | (u == -a), axis=0)
    return u[top, np.arange(u.shape[1])] < 0


def init_features(g: SignedDigraph, rank: int, seed: int = 0) -> np.ndarray:
    """Compute the n x rank feature matrix X = U * S for the signed adjacency.

    The recipe is fixed: `randomized_svd` with its two power steps and
    `OVERSAMPLE` extra sketch columns, clipped to n - rank, bit for bit. V is
    never formed, so on the Gram branch at most two n x (rank + oversample)
    arrays are alive at a time (see `_svd`).
    """
    if rank < 1:
        raise ValueError(f"rank must be positive, got {rank}")
    if rank > g.n:
        raise ValueError(f"rank {rank} exceeds node count {g.n}")
    u, s, _ = _svd(g.a, rank, min(OVERSAMPLE, g.n - rank), power_iters=2, seed=seed, right=False)
    # (-u) * s and u * (-s) agree bit for bit, signed zeros included.
    u *= np.where(_sign_flips(u), -s, s)
    return u


def _write_artifact(path, kind, header, matrices) -> None:
    """Write a binary artifact: `header`, then each matrix as row-major
    little-endian float64. A non-finite entry is refused before the file is
    opened, so neither `path` nor a temporary file is left behind."""
    matrices = [np.ascontiguousarray(m, dtype="<f8") for m in matrices]
    if not all(np.all(np.isfinite(m)) for m in matrices):
        raise ValueError(f"{path}: {kind} not written: non-finite entries")
    with atomic_write(path, binary=True) as fh:
        fh.write(header)
        fh.writelines(memoryview(m).cast("B") for m in matrices)


def _read_artifact(path, kind, header, magic, version, payload_size):
    """Read a `_write_artifact` file: the header fields after the magic and
    version, and the flat float64 payload of `payload_size(*fields)` values.

    The size is checked against the file before anything is read, so a
    corrupt header cannot ask for the memory. Every failure, including a
    `ValueError` from `payload_size` and a non-finite value, is a
    `ValueError` that names `path`.
    """
    with open(path, "rb") as fh:
        raw = fh.read(header.size)
        if len(raw) != header.size:
            raise ValueError(f"{path}: truncated {kind} header")
        got_magic, got_version, *fields = header.unpack(raw)
        if got_magic != magic:
            raise ValueError(f"{path}: not a {kind} (magic {got_magic!r})")
        if got_version != version:
            raise ValueError(f"{path}: unsupported {kind} version {got_version}")
        try:
            count = payload_size(*fields)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if 8 * count > left:
            raise ValueError(f"{path}: truncated {kind}")
        if 8 * count < left:
            raise ValueError(f"{path}: trailing bytes after {kind} payload")
        payload = np.fromfile(fh, dtype="<f8", count=count)
    if not np.all(np.isfinite(payload)):
        raise ValueError(f"{path}: {kind} contains non-finite entries")
    return fields, payload


def save_features(path, x: np.ndarray) -> None:
    """Write a feature matrix: magic, u32 version, u64 n, u64 d, row-major f64."""
    x = np.asarray(x)
    if x.ndim != 2:
        raise ValueError(f"feature matrix must be 2-D, got shape {x.shape}")
    header = _HEADER.pack(FEATURE_MAGIC, FEATURE_VERSION, *x.shape)
    _write_artifact(path, "feature file", header, [x])


def load_features(path) -> np.ndarray:
    """Read a `save_features` file (`_read_artifact`): the n x d matrix."""
    (n, d), x = _read_artifact(path, "feature file", _HEADER, FEATURE_MAGIC, FEATURE_VERSION,
                               lambda n, d: n * d)
    return x.reshape(n, d)
