"""Initial node features from a randomized truncated SVD of the signed adjacency.

The features are X = U * S for the leading singular triplets of the
signed adjacency `SignedDigraph.a` = A+ - A-, which keeps the sign
information. `_write_artifact` and `_read_artifact` hold the binary
container and its checks for the feature file and `model`'s checkpoint.

The SVD worker: `init_features` runs each pass whose rows do not depend on
each other in fixed row blocks, which the calling thread and, with two or
more usable CPUs (`diffusion._usable_cpus`), a one-thread pool that lives
for one call take in turn. These are the CSR products m @ Y, the dense
basis changes Y @ R and Q @ W, and the sign fix's column scans and
scaling; numpy's and scipy's products release the GIL. The blocks depend on
the shape alone (`_block_count`), and each block computes its rows as the
whole pass does, so the features are bitwise the same on any CPU count.
The Gaussian draw, the Grams Y^T Y, their eigendecompositions and the
scatter-form products m^T @ Y stay whole on the calling thread: splitting
m^T @ Y by rows would take a gather-form (CSR) copy of m^T, about 0.3 of an
n x (rank + OVERSAMPLE) sketch array, and the SVD's memory bound of 2.25
such arrays (`tests/test_memory.py`) has 0.17 of them to spare.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from . import diffusion
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
_FINITE_BLOCK = 16384  # values per artifact finiteness check: a 16 KiB mask

# Row blocks of the SVD worker. A small product runs on other OpenBLAS
# kernels than a large one, with other bits: with OpenBLAS 0.3.31 on a Xeon
# a row block matched the whole product's rows above 1.0e6 multiply-adds on
# one BLAS thread and above 2.7e6 on 2 or 4. So a dense block holds at least
# `_BLOCK_WORK`. A sparse product takes `_MAX_BLOCKS` blocks, each sliced
# from m and copied into place, only where each holds `_SPARSE_BLOCK_WORK`:
# at Bitcoin-Alpha's size one took 2.0 ms whole and 5.2 ms in 32 blocks, at
# half-Epinions' 117 and 78 ms.
_MAX_BLOCKS = 32
_BLOCK_WORK = 2**22
_SPARSE_BLOCK_WORK = 2**20


def _block_count(n_rows: int, row_work: int) -> int:
    """How many row blocks a dense pass over n_rows rows of `row_work`
    multiply-adds each takes: as many as `_BLOCK_WORK` allows, at most
    `_MAX_BLOCKS`, and one (the whole) below twice `_BLOCK_WORK`."""
    return max(1, min(_MAX_BLOCKS, n_rows * row_work // _BLOCK_WORK))


def _row_blocks(n_rows: int, count: int) -> list[slice]:
    """`count` contiguous row blocks of near-equal size."""
    return [slice(n_rows * i // count, n_rows * (i + 1) // count) for i in range(count)]


def _each_block(worker, fn, blocks: list[slice]) -> list:
    """[fn(rows) for rows in blocks]; with a `worker` pool, it and the
    calling thread take the blocks in turn, each the next one not taken."""
    out = [None] * len(blocks)
    todo = iter(range(len(blocks)))  # next() runs under the GIL: each index once

    def run():
        for i in todo:
            out[i] = fn(blocks[i])

    if worker is None or len(blocks) < 2:
        run()
    else:
        done = worker.submit(run)
        run()
        done.result()
    return out


def _matmul(a, b: np.ndarray, worker) -> np.ndarray:
    """a @ b for a dense or CSR a, on the worker, in the row blocks that the
    comment on `_MAX_BLOCKS` sets out. A one-column b makes a matrix-vector
    product, whose bits depend on the row offset, so it runs whole."""
    dense = isinstance(a, np.ndarray)
    if dense:
        count = _block_count(a.shape[0], a.shape[1] * b.shape[1])
    else:
        count = _MAX_BLOCKS if a.nnz * b.shape[1] >= _MAX_BLOCKS * _SPARSE_BLOCK_WORK else 1
    if count < 2 or b.shape[1] < 2:
        return a @ b
    out = np.empty((a.shape[0], b.shape[1]))

    def block(rows):
        if dense:
            np.matmul(a[rows], b, out=out[rows])
        else:
            out[rows] = a[rows] @ b

    _each_block(worker, block, _row_blocks(a.shape[0], count))
    return out


def _svqb(y: np.ndarray, worker=None) -> np.ndarray:
    """A well-conditioned basis of range(y), by SVQB: y @ V diag(lambda)^(-1/2)
    from y^T y = V diag(lambda) V^T, with lambda floored at
    max(lambda_max * eps, tiny) so a zero or rank-deficient y stays finite.
    Orthonormal up to about eps * cond(y)^2, all that a power step needs.
    """
    lam, vec = np.linalg.eigh(y.T @ y)
    info = np.finfo(y.dtype)
    floor = max(lam[-1] * info.eps, info.tiny)
    return _matmul(y, vec / np.sqrt(np.maximum(lam, floor)), worker)


def _orthonormal(owned: list, worker=None) -> np.ndarray:
    """An orthonormal basis Q of range(y), Q Q^T y = y, for the y popped from
    `owned`, which is freed after the first pass.

    Two SVQB passes while cond(y) < 1e4 (`_SVQB_MIN_RATIO`): the second
    restores the orthonormality the first loses (the bound of Yamamoto,
    Nakatsukasa, Yanagisawa & Fukaya 2015, ETNA 44, for CholeskyQR2). A
    zero, rank-deficient or wide-spectrum y takes a Householder QR, the one
    that is accurate there.
    """
    y = owned.pop()
    lam, vec = np.linalg.eigh(y.T @ y)
    if lam[0] > _SVQB_MIN_RATIO * lam[-1]:
        # The first pass reuses this eigendecomposition: it is `_svqb(y)`.
        y = _matmul(y, vec / np.sqrt(lam), worker)
        return _svqb(y, worker)
    return np.linalg.qr(y)[0]


def _svd(m, rank, oversample, power_iters, seed, worker=None):
    """The leading `rank` left singular vectors and values (u, s) of m, before
    the sign fix: u has orthonormal columns and s is non-increasing. V is
    never formed. Deterministic for a fixed seed with one BLAS thread, and
    bitwise the same with or without the `worker` pool.

    The Gaussian range finder with power iterations of Halko, Martinsson &
    Tropp 2011 (arXiv:0909.4061, Algorithms 4.3/4.4 and 5.1). Any
    well-conditioned basis will do between power steps (their section 4.5),
    so each takes one SVQB (Stathopoulos & Wu 2002), not a tall QR.
    Rayleigh-Ritz takes Q = `_orthonormal(Y)` and B^T = m^T Q; while
    cond(B^T) < 1e4, the Gram B B^T = W diag(lambda) W^T gives U = Q W and
    S = sqrt(lambda); else a Householder QR B^T = Q2 C and the SVD
    C = Uc S Vc^T give U = Q Vc.

    Accuracy limit: the Gram branch gives sigma_j a relative error of about
    eps * (sigma_1 / sigma_j)^2, against eps * sigma_1 / sigma_j on the
    Householder branch; U stays orthonormal to working precision. While the
    top rank + oversample singular values span less than about 1e10 the
    result matches a QR after every product; beyond that, vectors with
    sigma_j below about 1e-10 * sigma_1 lose accuracy, though the
    projection error ||m - U U^T m|| stays of order
    sigma_(rank+1) + 1e-9 * sigma_1.

    The sketch lives only in a list that each product pops, so each step
    frees the array it reads: the Gram branch holds at most the sketch and
    its product, or Q and U, at a time; the Householder branch one more.
    """
    rng = np.random.default_rng(seed)
    sketch = [_matmul(m, rng.standard_normal((m.shape[1], rank + oversample)), worker)]
    for _ in range(power_iters):
        sketch.append(_matmul(m, m.T @ _svqb(sketch.pop(), worker), worker))
    q = _orthonormal(sketch, worker)

    # Rayleigh-Ritz on b = q^T m through its tall transpose b^T = m^T q, which
    # keeps a sparse m sparse.
    bt = m.T @ q
    lam, vec = np.linalg.eigh(bt.T @ bt)
    if lam[0] > _SVQB_MIN_RATIO * lam[-1]:
        # b b^T = vec diag(lam) vec^T, so u = q vec and s = sqrt(lam), in
        # descending order.
        del bt
        s = np.sqrt(lam[::-1][:rank])
        vec = np.ascontiguousarray(vec[:, ::-1][:, :rank])
        return _matmul(q, vec, worker), s
    # A zero, rank-deficient or wide-spectrum b^T: b^T = q2 c with q2 from a
    # Householder QR, and the SVD of the small c.
    q2 = np.linalg.qr(bt)[0]
    _, s, ubt = np.linalg.svd(q2.T @ bt)
    del bt, q2
    return q @ ubt[:rank].T, s[:rank]


def _sign_flips(u: np.ndarray, worker=None) -> np.ndarray:
    """The columns of u whose largest-magnitude entry (the first, on a tie)
    is negative, found from the column maxima and minima so that no |u| is
    made; negating them fixes the sign of each singular pair.

    Both scans run in the row blocks of a rank-wide square product,
    combined exactly: a is the largest block maximum or negated minimum, and a
    column's pivot is the first match in the first block holding one, or
    row 0, as np.argmax takes, where no entry matches a (a NaN column)."""
    n, rank = u.shape
    blocks, cols = _row_blocks(n, _block_count(n, rank**2)), np.arange(rank)
    ends = _each_block(worker, lambda rows: (u[rows].max(axis=0), u[rows].min(axis=0)), blocks)
    a = np.maximum(np.max([hi for hi, _ in ends], axis=0), -np.min([lo for _, lo in ends], axis=0))

    def pivot(rows):
        block = u[rows]
        match = (block == a) | (block == -a)
        top = np.argmax(match, axis=0)
        return match[top, cols], block[top, cols] < 0

    pivots = _each_block(worker, pivot, blocks)
    flips = pivots[0][1]
    for found, negative in reversed(pivots):
        flips = np.where(found, negative, flips)
    return flips


def init_features(g: SignedDigraph, rank: int, seed: int = 0) -> np.ndarray:
    """The n x rank features X = U * S of the signed adjacency, by a fixed
    recipe: `_svd` with two power steps and `OVERSAMPLE` extra sketch
    columns (at most n - rank), then U sign-fixed and scaled in one pass,
    all on the SVD worker (see the module docstring).
    """
    if rank < 1:
        raise ValueError(f"rank must be positive, got {rank}")
    if rank > g.n:
        raise ValueError(f"rank {rank} exceeds node count {g.n}")
    with diffusion._worker() as worker:
        u, s = _svd(g.a, rank, min(OVERSAMPLE, g.n - rank), 2, seed, worker)
        # (-u) * s and u * (-s) agree bit for bit, signed zeros included.
        scale = np.where(_sign_flips(u, worker), -s, s)
        _each_block(worker, lambda rows: np.multiply(u[rows], scale, out=u[rows]),
                    _row_blocks(g.n, _block_count(g.n, rank**2)))
    return u


def _all_finite(flat: np.ndarray) -> bool:
    """Whether every value of a 1-D array is finite, `_FINITE_BLOCK` at a time."""
    return all(np.isfinite(flat[i:i + _FINITE_BLOCK]).all()
               for i in range(0, flat.size, _FINITE_BLOCK))


def _write_artifact(path, kind, header, array) -> None:
    """Write a binary artifact: `header`, then `array` as row-major
    little-endian float64. A non-finite entry is refused before the file is
    opened, so neither `path` nor a temporary file is left behind."""
    flat = np.ascontiguousarray(array, dtype="<f8").reshape(-1)
    if not _all_finite(flat):
        raise ValueError(f"{path}: {kind} not written: non-finite entries")
    with atomic_write(path, binary=True) as fh:
        fh.write(header)
        fh.write(memoryview(flat).cast("B"))


def _read_artifact(path, kind, header, magic, version, payload_size):
    """Read a `_write_artifact` file: the header fields after the magic and
    version, and the flat float64 payload of `payload_size(*fields)` values,
    whose size is checked against the file before anything is read. Every
    failure, a non-finite value included, is a `ValueError` naming `path`.
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
    if not _all_finite(payload):
        raise ValueError(f"{path}: {kind} contains non-finite entries")
    return fields, payload


def save_features(path, x: np.ndarray) -> None:
    """Write a feature matrix: magic, u32 version, u64 n, u64 d, row-major f64."""
    x = np.asarray(x)
    if x.ndim != 2:
        raise ValueError(f"feature matrix must be 2-D, got shape {x.shape}")
    header = _HEADER.pack(FEATURE_MAGIC, FEATURE_VERSION, *x.shape)
    _write_artifact(path, "feature file", header, x)


def load_features(path) -> np.ndarray:
    """Read a `save_features` file (`_read_artifact`): the n x d matrix."""
    (n, d), x = _read_artifact(path, "feature file", _HEADER, FEATURE_MAGIC, FEATURE_VERSION,
                               lambda n, d: n * d)
    return x.reshape(n, d)
