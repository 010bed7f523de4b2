"""Shared test utilities: dataset discovery, independent oracles, and the
checkers for the paper's invariants (block column sums, finite-difference
gradients)."""

import os
import re
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from hypothesis import strategies as st

import sgdnet.training as training
from sgdnet.diffusion import DiffusionConfig, _adjoint
from sgdnet.features import save_features
from sgdnet.graph import DataError, EdgeList, ParseError, SignedEdge, normalize
from sgdnet.model import (
    diffuse_inputs,
    init_params,
    loss_grad_logits,
    params_sq_norm,
    save_checkpoint,
)
from sgdnet.seeding import spawn_seeds

from synthetic import random_signed_graph

_HERE = os.path.dirname(os.path.abspath(__file__))
DATA_DIR = os.environ.get("SGDNET_DATA", os.path.join(_HERE, "..", "data"))


def dataset_path(*names):
    """First existing file among `names` inside the data directory, else None."""
    for name in names:
        path = os.path.join(DATA_DIR, name)
        if os.path.exists(path):
            return path
    return None


def edge_rows(edges) -> list[SignedEdge]:
    """Edges, an EdgeList or any (src, dst, sign) triples, as SignedEdge
    values in order."""
    if isinstance(edges, EdgeList):
        edges = zip(edges.src.tolist(), edges.dst.tolist(), edges.sign.tolist())
    return list(map(SignedEdge._make, edges))


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


# Oracles for the diffusion, built from `g.edges` alone, so that none depends
# on `sgdnet.graph.build_graph`'s adjacency or on `sgdnet.graph.normalize`.


def per_sign_adjacency(g):
    """A+ and A-: one CSR matrix per sign with 0/1 entries, from a COO build
    of `g.edges` in which a repeated edge collapses to one entry."""

    def csr_for(sign):
        pick = g.edges.sign == sign
        mat = sp.csr_array(
            (np.ones(np.count_nonzero(pick)), (g.edges.src[pick], g.edges.dst[pick])),
            shape=(g.n, g.n),
            dtype=np.float64,
        )
        mat.sum_duplicates()
        mat.data[:] = 1.0
        mat.sort_indices()
        return mat

    return csr_for(1), csr_for(-1)


def per_sign_operators(g):
    """NA+ and NA-: each per-sign adjacency row divided by the node's total
    out-degree. Deadend rows stay all-zero."""
    a_plus, a_minus = per_sign_adjacency(g)
    degree = np.diff(a_plus.indptr) + np.diff(a_minus.indptr)

    def scaled(a):
        rows = np.repeat(np.arange(g.n), np.diff(a.indptr))
        return sp.csr_array((a.data / degree[rows], a.indices, a.indptr), shape=a.shape)

    return scaled(a_plus), scaled(a_minus)


def dense_block_operator(g):
    """Explicit 2n x 2n diffusion operator, for small-graph oracles only."""
    ap, an = per_sign_operators(g)
    ap_t, an_t = ap.T.toarray(), an.T.toarray()
    return np.block([[ap_t, an_t], [an_t, ap_t]])


def block_exact_solve(g, h, c):
    """(p*, m*) of the per-sign block system (I - (1-c) B) [p; m] = c [h; 0],
    one dense 2n x 2n solve."""
    lhs = np.eye(2 * g.n) - (1.0 - c) * dense_block_operator(g)
    t_star = np.linalg.solve(lhs, np.concatenate([c * h, np.zeros_like(h)]))
    return t_star[: g.n], t_star[g.n :]


def reference_diffusion_states(g, h, c, k_steps, m0):
    """T0 .. T_K of the literal per-sign recurrence, four sparse products a
    step, for checking the fused sum/difference iteration."""
    ap, an = per_sign_operators(g)
    ap_t, an_t = ap.T, an.T
    p, m = h, m0
    states = [(p, m)]
    for _ in range(k_steps):
        p, m = (
            (1 - c) * (ap_t @ p + an_t @ m) + c * h,
            (1 - c) * (an_t @ p + ap_t @ m),
        )
        states.append((p, m))
    return states


def reference_diffuse_adjoint(g, grad_p, grad_m, c, k_steps):
    """Literal per-sign adjoint recurrence: accumulate c * grad_p at every
    step, propagate with the transposed block operator, add the final
    positive-channel gradient."""
    ap, an = per_sign_operators(g)
    gp, gm = grad_p, grad_m
    grad_h = np.zeros_like(grad_p)
    for _ in range(k_steps):
        grad_h = grad_h + c * gp
        gp, gm = (
            (1 - c) * (ap @ gp + an @ gm),
            (1 - c) * (an @ gp + ap @ gm),
        )
    return grad_h + gp


def exactly(message):
    """A `pytest.raises` match pattern for exactly `message`."""
    return f"^{re.escape(message)}$"


def adjoint(na, grad_p, grad_m, cfg):
    """d(loss)/d(h_tilde) by the library's adjoint `_adjoint`, for the output
    gradient pair (grad_p, grad_m), handed over as the block [grad_p || grad_m]."""
    return _adjoint(na, [np.hstack([grad_p, grad_m])], cfg)


# Checkers for the paper's invariants, on the library's own operators.


def column_sums_of_b(na):
    """Column sums of the 2n x 2n block diffusion operator, without forming it.

    The operator stacks the transposed per-sign matrices, so its column sums
    are the row sums of S = NA+ + NA- repeated twice: 1 for nodes with
    outgoing edges, 0 for deadends. The property suite uses this to certify
    that the operator's maximum column sum never exceeds 1.
    """
    b = np.asarray(na.adj[0].sum(axis=1)).ravel()
    return np.concatenate([b, b])


# The finite-difference gradient check. It calls `training.forward_loss` and
# `training.backward` through the module, so a test that monkeypatches either
# (or `diffusion._adjoint`, which `backward` calls the same way) is checked
# with the patched function.


@dataclass
class GradCheckReport:
    per_param: dict[str, float]
    tolerance: float

    @property
    def max_error(self) -> float:
        return max(self.per_param.values())

    @property
    def passed(self) -> bool:
        return self.max_error < self.tolerance

    def __str__(self) -> str:
        lines = [
            f"{name}: max rel err {err:.3e}" for name, err in self.per_param.items()
        ]
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(f"{verdict} (tolerance {self.tolerance:g})")
        return "\n".join(lines)


def grad_check(
    seed: int = 0,
    n: int = 6,
    d0: int = 4,
    d: int = 3,
    n_layers: int = 2,
    k_steps: int = 3,
    c: float = 0.5,
    weight_decay: float = 1e-3,
    fd_step: float = 1e-6,
    tolerance: float = 1e-4,
) -> GradCheckReport:
    """Compare analytic gradients against central finite differences on a toy
    instance. Failure is a reported verdict, not an exception.

    Both layer-1 paths are checked, the direct one and the one reading the
    precomputed diffusion of x; each parameter reports its worse error.
    Layers 2 and up run the adjoint on both."""
    if n > 10:
        raise ValueError(f"grad_check is a toy-scale harness, keep n <= 10 (got {n})")
    graph_seed, x_seed, init_seed = spawn_seeds(seed, 3)
    g = random_signed_graph(n, avg_out_degree=3.0, deadend_fraction=0.15, seed=graph_seed)
    na = normalize(g)
    x = np.random.default_rng(x_seed).standard_normal((n, d0))
    params = init_params(d0, d, n_layers, seed=init_seed)
    batch = g.edges
    cfg = DiffusionConfig(c=c, k_steps=k_steps, m0_mode="zero")

    report = {name: 0.0 for name, _ in params.named()}
    for x_diffused in (None, diffuse_inputs(na, x, cfg)):
        errors = _fd_errors(na, x, params, cfg, batch, weight_decay, fd_step, x_diffused)
        for name, err in errors.items():
            report[name] = max(report[name], err)
    return GradCheckReport(per_param=report, tolerance=tolerance)


def _fd_errors(na, x, params, cfg, batch, weight_decay, fd_step, x_diffused):
    """Worst relative error per parameter of the analytic gradient against
    central finite differences."""
    loss, logits, cache = training.forward_loss(
        na, x, params, cfg, batch, weight_decay, x_diffused=x_diffused
    )
    grads = dict(training.backward(
        cache, batch, loss_grad_logits(logits, batch.sign), weight_decay
    ).named())

    def loss_at() -> float:
        value, _, _ = training.forward_loss(
            na, x, params, cfg, batch, weight_decay, x_diffused=x_diffused
        )
        return value

    errors: dict[str, float] = {}
    for name, w in params.named():
        analytic = grads[name]
        worst = 0.0
        it = np.nditer(w, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = w[idx]
            w[idx] = orig + fd_step
            up = loss_at()
            w[idx] = orig - fd_step
            down = loss_at()
            w[idx] = orig
            fd = (up - down) / (2 * fd_step)
            a = analytic[idx]
            rel = abs(a - fd) / max(abs(a), abs(fd), 1e-4)
            worst = max(worst, rel)
        errors[name] = worst
    return errors


def assert_precompute_matches_direct_path(na, x, params, cfg, batch):
    """`forward_loss` plus `backward` with layer 1 reading the precomputed
    diffusion of x give the direct path's loss and gradients to 1e-12
    relative, and consume the rng alike."""

    def loss_grads_and_next_draw(x_diffused):
        rng = np.random.default_rng(3)
        loss, logits, cache = training.forward_loss(
            na, x, params, cfg, batch, 1e-3, rng=rng, x_diffused=x_diffused
        )
        grads = training.backward(cache, batch, loss_grad_logits(logits, batch.sign), 1e-3)
        return loss, grads.named(), rng.random()

    loss, grads, draw = loss_grads_and_next_draw(None)
    loss_pre, grads_pre, draw_pre = loss_grads_and_next_draw(diffuse_inputs(na, x, cfg))
    assert abs(loss_pre - loss) <= 1e-12 * abs(loss)
    assert [name for name, _ in grads_pre] == [name for name, _ in grads]
    for (name, ref), (_, pre) in zip(grads, grads_pre):
        assert np.abs(pre - ref).max() <= 1e-12 * np.abs(ref).max(), name
    assert draw_pre == draw


def reference_adam(lr):
    """A literal copy of the per-matrix Adam that kept its moments in dicts
    by matrix name, made as zeros at a name's first step. Returns its
    `step(params, grads)`, with `grads` a dict by name. An oracle for
    bitwise-equality tests of the vector Adam."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    m: dict[str, np.ndarray] = {}
    v: dict[str, np.ndarray] = {}
    t = 0

    def step(params, grads):
        nonlocal t
        t += 1
        for name, w in params.named():
            g = grads[name]
            if name not in m:
                m[name] = np.zeros_like(w)
                v[name] = np.zeros_like(w)
            m[name] = beta1 * m[name] + (1 - beta1) * g
            v[name] = beta2 * v[name] + (1 - beta2) * g * g
            m_hat = m[name] / (1 - beta1**t)
            v_hat = v[name] / (1 - beta2**t)
            w -= lr * m_hat / (np.sqrt(v_hat) + eps)

    return step


# A literal copy of the row-wise loss head that indexed each edge's class
# column: k-column softmax, max over axis 1, fancy-indexed one-hot. An oracle
# for bitwise-equality tests of the two-column head.


def _reference_sign_to_index(signs):
    return (signs < 0).astype(np.int64)


def reference_softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def reference_loss_total(logits, signs, params, weight_decay):
    idx = _reference_sign_to_index(np.asarray(signs))
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1))
    data = float(np.mean(log_norm - shifted[np.arange(len(idx)), idx]))
    return data + weight_decay * params_sq_norm(params)


def reference_loss_grad_logits(logits, signs):
    idx = _reference_sign_to_index(np.asarray(signs))
    grad = reference_softmax(logits)
    grad[np.arange(len(idx)), idx] -= 1.0
    return grad / len(idx)


# A literal copy of the channel walks over an earlier operator layout: the
# per-sign transposes stored as sorted int64 CSR, the forward pair
# (S^T, D^T) summed from them, the adjoint pair (S, D), and a full
# `op * decay` copy per walk. An oracle for bitwise-equality tests.


def _stored_operator_pairs(g):
    ap, an = per_sign_operators(g)
    ap_t = sp.csr_array(ap.T)
    an_t = sp.csr_array(an.T)
    ap_t.sort_indices()
    an_t.sort_indices()
    fwd = (ap_t + an_t, ap_t - an_t)
    adj = (ap + an, ap - an)
    return fwd, adj


def _stored_walk(op, z, inject, decay, k_steps):
    op = op * decay
    for _ in range(k_steps):
        z = op @ z
        z += inject
        yield z


def stored_layout_diffusion_states(g, h, c, k_steps, m0):
    """T0 .. T_K of the sum/difference walks on the stored-transpose layout."""
    fwd, _ = _stored_operator_pairs(g)
    p, m = h.copy(), m0.copy()
    inject = c * p
    walks = zip(
        _stored_walk(fwd[0], p + m, inject, 1.0 - c, k_steps),
        _stored_walk(fwd[1], p - m, inject, 1.0 - c, k_steps),
    )
    return [(p, m)] + [(0.5 * (s + d), 0.5 * (s - d)) for s, d in walks]


def stored_layout_diffuse_adjoint(g, grad_p, grad_m, c, k_steps):
    """The adjoint's sum/difference walks on the stored-transpose layout."""
    _, adj = _stored_operator_pairs(g)
    start_s, start_d = grad_p + grad_m, grad_p - grad_m
    s = list(_stored_walk(adj[0], start_s, c * start_s, 1.0 - c, k_steps))[-1]
    d = list(_stored_walk(adj[1], start_d, c * start_d, 1.0 - c, k_steps))[-1]
    return 0.5 * (s + d)


def reference_randomized_svd(m, rank, oversample=10, power_iters=2, seed=0):
    """(u, s) of the randomized SVD with a Householder QR after every product
    and the SVD of the wide B = Q^T A, u sign-fixed column by column. Same
    Gaussian sketch as `sgdnet.features._svd`, so the two agree up to the
    normalizer's rounding; an oracle for the SVQB power steps."""
    rng = np.random.default_rng(seed)
    omega = rng.standard_normal((m.shape[1], rank + oversample))
    q, _ = np.linalg.qr(m @ omega)
    for _ in range(power_iters):
        w, _ = np.linalg.qr(m.T @ q)
        q, _ = np.linalg.qr(m @ w)
    b = (m.T @ q).T
    ub, s = np.linalg.svd(b, full_matrices=False)[:2]
    u = np.ascontiguousarray((q @ ub)[:, :rank])
    s = s[:rank].copy()
    for j in range(rank):
        i = int(np.argmax(np.abs(u[:, j])))
        if u[i, j] < 0:
            u[:, j] = -u[:, j]
    return u, s


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
    if not np.isfinite(rating):
        raise ParseError(f"line {lineno}: rating {rating_str!r} is not a finite number")
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


def _reference_text_lines(path):
    """(line number, text) of each line of a file, split on the bytes as
    text mode splits them (at LF, CR and CRLF) and decoded line by line as
    "utf-8-sig" reads them; text is None for a line that is not valid
    UTF-8. One leading byte-order mark is dropped."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data.startswith(b"\xef\xbb\xbf"):
        data = data[3:]
    for lineno, raw_line in enumerate(data.splitlines(), start=1):
        try:
            yield lineno, raw_line.decode("utf-8")
        except UnicodeDecodeError:
            yield lineno, None


def reference_load_id_map(path):
    """`load_id_map`'s parse: the id map, or DataError naming the first bad
    line."""
    id_map = {}
    for lineno, line in _reference_text_lines(path):
        if line is None:
            raise DataError(f"{path}: line {lineno}: not valid UTF-8")
        if not line:
            continue
        raw, tab, dense = line.rpartition("\t")
        try:
            if not tab:
                raise ValueError("no tab")
            id_map[raw] = int(dense)
        except ValueError:
            raise DataError(f"{path}: line {lineno}: expected RAW_ID<tab>DENSE_ID") from None
    return id_map


def reference_read_config_file(path):
    """`cli._read_config_file`'s parse: the key/value dict, or ValueError
    naming the first bad line."""
    values = {}
    for lineno, line in _reference_text_lines(path):
        if line is None:
            raise ValueError(f"{path}:{lineno}: not valid UTF-8")
        line = line.strip()
        if not line or line[0] == "#":
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        values[key.strip().replace("_", "-")] = value.strip()
    return values


def write_edge_file(path, fmt, lines, seed) -> int:
    """Write a generated edge file of `lines` edges over lines // 6 nodes,
    about 85% positive, in which one line in 20 repeats an earlier edge (its
    sign drawn anew); return its size in bytes. In "tsv-sign" (with a `#`
    header) and "csv-rating" (SOURCE,TARGET,RATING,TIME) the raw ids are
    distinct numbers below 10**7; "dense-tsv" holds the dense ids, as
    `read_edge_tsv` reads them."""
    rng = np.random.default_rng(seed)
    n = max(lines // 6, 2)
    src, dst = rng.integers(0, n, size=(2, lines))
    again = np.flatnonzero(rng.random(lines) < 0.05)[1:]
    earlier = (rng.random(len(again)) * again).astype(np.int64)
    src[again], dst[again] = src[earlier], dst[earlier]
    sign = np.where(rng.random(lines) < 0.85, 1, -1)
    if fmt != "dense-tsv":
        raw = rng.choice(10**7, size=n, replace=False)
        src, dst = raw[src], raw[dst]
    cols = zip(src.tolist(), dst.tolist(), sign.tolist())
    if fmt == "csv-rating":
        rating = (sign * rng.integers(1, 11, size=lines)).tolist()
        text = "".join(f"{u},{v},{r},{1289000000 + i}\n"
                       for i, ((u, v, _), r) in enumerate(zip(cols, rating)))
    else:
        header = "# FromNodeId\tToNodeId\tSign\n" if fmt == "tsv-sign" else ""
        text = header + "".join(f"{u}\t{v}\t{x}\n" for u, v, x in cols)
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(text)
    return len(text)


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


# Mutated binary artifacts, for the readers' property and memory tests.

# (rows / 64 or d0, d, layers) of a valid feature file or checkpoint.
ARTIFACT_DIMS = st.tuples(st.integers(1, 64), st.integers(16, 32), st.integers(1, 3))
# A byte offset, taken modulo the file's length: half of them fall in the
# first 32 bytes, which hold the header.
_OFFSETS = st.one_of(st.integers(0, 31), st.integers(0, 2**32 - 1))
BYTE_MUTATIONS = st.one_of(
    st.tuples(st.just("truncate"), _OFFSETS),
    st.tuples(st.just("append"), st.binary(min_size=1, max_size=16)),
    st.tuples(st.just("xor"), _OFFSETS, st.integers(1, 255)),
)


def write_mutated_artifact(path, artifact, dims, seed, mutation) -> bytes:
    """Write a valid feature file (64 n x d) or checkpoint (d0, d, layers) of
    6 KB to 1 MB at `path`, then cut it at an offset, append bytes, or XOR
    one byte, per `mutation`. Returns the bytes left in the file."""
    if artifact == "features":
        n, d = 64 * dims[0], dims[1]
        save_features(path, np.random.default_rng(seed).standard_normal((n, d)))
    else:
        save_checkpoint(path, init_params(*dims, seed=seed), DiffusionConfig(c=0.35, k_steps=4))
    with open(path, "rb") as fh:
        raw = fh.read()
    kind, arg, *mask = mutation
    if kind == "append":
        raw += arg
    elif kind == "truncate":
        raw = raw[:arg % len(raw)]
    else:
        out = bytearray(raw)
        out[arg % len(raw)] ^= mask[0]
        raw = bytes(out)
    with open(path, "wb") as fh:
        fh.write(raw)
    return raw
