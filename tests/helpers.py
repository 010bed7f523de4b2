"""Shared test utilities: dataset discovery and independent oracles."""

import os

import numpy as np

from sgdnet.graph import DataError, ParseError

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


# Literal copies of the per-line edge readers and the midrank loop that the
# library replaced with whole-array code; oracles for differential tests.


def _reference_parse_tsv_sign(line, lineno):
    parts = line.split("\t")
    if len(parts) != 3:
        raise ParseError(f"line {lineno}: expected 3 tab-separated fields, got {len(parts)}")
    src, dst, sign_str = (p.strip() for p in parts)
    try:
        sign = int(sign_str)
    except ValueError:
        raise ParseError(f"line {lineno}: sign {sign_str!r} is not an integer") from None
    if sign not in (1, -1):
        raise ParseError(f"line {lineno}: sign must be 1 or -1, got {sign}")
    return src, dst, sign


def _reference_parse_csv_rating(line, lineno):
    parts = line.split(",")
    if len(parts) < 3:
        raise ParseError(f"line {lineno}: expected SOURCE,TARGET,RATING[,TIME], got {len(parts)} fields")
    src, dst, rating_str = (p.strip() for p in parts[:3])
    try:
        rating = float(rating_str)
    except ValueError:
        raise ParseError(f"line {lineno}: rating {rating_str!r} is not numeric") from None
    if rating == 0:
        raise DataError(f"line {lineno}: zero rating carries no sign")
    return src, dst, (1 if rating > 0 else -1)


_REFERENCE_PARSERS = {"tsv-sign": _reference_parse_tsv_sign, "csv-rating": _reference_parse_csv_rating}


def reference_load_edge_list(path, fmt="tsv-sign"):
    """(edges as (src, dst, sign) tuples, n, id_map), read line by line: ids
    by first appearance, a repeated pair at its first position with its last
    sign (a dict keeps the first insertion's place)."""
    parse = _REFERENCE_PARSERS[fmt]
    id_map = {}
    signs = {}

    def dense(raw):
        if raw not in id_map:
            id_map[raw] = len(id_map)
        return id_map[raw]

    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw_line in enumerate(fh, start=1):
            line = raw_line.strip()
            if not line or line.startswith("#"):
                continue
            src_raw, dst_raw, sign = parse(line, lineno)
            signs[(dense(src_raw), dense(dst_raw))] = sign

    if not signs:
        raise DataError(f"{path}: no edges found")

    edges = [(u, v, s) for (u, v), s in signs.items()]
    return edges, len(id_map), id_map


def reference_read_edge_tsv(path):
    """Dense-id edges as (src, dst, sign) tuples, read line by line."""
    edges = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw_line in enumerate(fh, start=1):
            line = raw_line.strip()
            if not line or line.startswith("#"):
                continue
            src_raw, dst_raw, sign = _reference_parse_tsv_sign(line, lineno)
            try:
                src, dst = int(src_raw), int(dst_raw)
            except ValueError:
                raise ParseError(f"line {lineno}: dense ids must be integers") from None
            if src < 0 or dst < 0:
                raise ParseError(f"line {lineno}: dense ids must be non-negative")
            edges.append((src, dst, sign))
    if not edges:
        raise DataError(f"{path}: no edges found")
    return edges


def reference_midranks(values):
    """Ranks from 1 with tied values sharing their mean rank, one tie group
    at a time."""
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(len(values), dtype=np.float64)
    sorted_vals = values[order]
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks
