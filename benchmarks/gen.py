"""Seeded synthetic signed graphs shaped like the paper's datasets.

The SNAP/KONECT files are not shipped with the repository, so the benchmark
draws graphs with the same node count, edge count and positive share:

* Degrees are heavy-tailed. Each node gets a Lomax (Pareto II) out-weight and
  in-weight, and edges are drawn Chung-Lu style with endpoint probability
  proportional to those weights. Every node also gets one cover edge, so all
  n ids appear in the file, as in a real edge list.
* Signs follow latent camps. Each node belongs to a majority or a minority
  camp. An edge scores +beta within a camp and -beta across camps, plus
  Gaussian flip noise. The lowest-scoring edges become negative, so the
  positive share is hit exactly and `test_auc` carries learnable signal.

Only numpy is used, so the inputs do not depend on the code under test.
The files are written in the formats the CLI reads: `csv-rating`,
`tsv-sign`, dense-id `edges.tsv` and `.sgdf` features.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class GraphShape:
    n: int
    m: int
    pos_share: float
    minority: float  # share of nodes in the minority camp
    beta: float = 1.5  # camp signal against unit Gaussian flip noise
    tail: float = 1.6  # Lomax shape of the degree weights; smaller is heavier


# Bitcoin-Alpha (SNAP soc-sign-bitcoinalpha): n=3,783, m=24,186, 93.6% positive.
# The paper's smallest graph; its n x 32 state fits in L2, so per-call and dense
# costs dominate. A minority camp of 7% gives a cross-camp share of ~13%, about
# twice the negative share, so negatives sit mostly across camps.
ALPHA = GraphShape(n=3_783, m=24_186, pos_share=0.936, minority=0.07)

# Epinions (SNAP soc-sign-epinions): n=131,828, m=841,372, 85.3% positive.
# The paper's largest graph; one n x 32 matrix is ~34 MB and spills out of L2,
# so the sparse diffusion dominates an epoch. A 19% minority camp gives a
# cross-camp share of ~31%, again about twice the negative share.
EPINIONS = GraphShape(n=131_828, m=841_372, pos_share=0.853, minority=0.19)


def scaled(shape: GraphShape, factor: float) -> GraphShape:
    """The same shape with n and m multiplied by `factor` (smoke tests)."""
    return GraphShape(
        n=max(64, int(shape.n * factor)),
        m=max(256, int(shape.m * factor)),
        pos_share=shape.pos_share,
        minority=shape.minority,
        beta=shape.beta,
        tail=shape.tail,
    )


@dataclass(frozen=True)
class SignedEdges:
    src: np.ndarray  # int64 node index in 0..n-1
    dst: np.ndarray
    sign: np.ndarray  # int8, +1 or -1
    n: int


def _weights(rng: np.random.Generator, n: int, tail: float) -> np.ndarray:
    w = rng.pareto(tail, size=n) + 1.0
    # Cap a hub at 2% of all weight so the Chung-Lu draw stays simple.
    np.minimum(w, 0.02 * w.sum(), out=w)
    return w / w.sum()


def _draw(rng: np.random.Generator, cdf: np.ndarray, size: int) -> np.ndarray:
    return np.minimum(np.searchsorted(cdf, rng.random(size)), len(cdf) - 1)


def _distinct(keys: np.ndarray) -> np.ndarray:
    """Drop repeated keys, keeping each first occurrence in draw order."""
    _, first = np.unique(keys, return_index=True)
    return keys[np.sort(first)]


def signed_edges(shape: GraphShape, seed: int) -> SignedEdges:
    """Exactly `shape.m` distinct non-loop edges over exactly `shape.n` nodes."""
    n, m = shape.n, shape.m
    if m < n or m > n * (n - 1) // 4:
        raise ValueError(f"need n <= m <= n(n-1)/4, got n={n}, m={m}")
    rng = np.random.default_rng(seed)
    cdf_out = np.cumsum(_weights(rng, n, shape.tail))
    cdf_in = np.cumsum(_weights(rng, n, shape.tail))

    # Cover edges: half the nodes get one out-edge, the other half one in-edge.
    nodes = rng.permutation(n)
    half = n // 2
    src = np.concatenate([nodes[:half], _draw(rng, cdf_out, n - half)])
    dst = np.concatenate([_draw(rng, cdf_in, half), nodes[half:]])
    dst = np.where(src == dst, (dst + 1) % n, dst)
    keys = _distinct(src * n + dst)

    # Chung-Lu fill up to exactly m distinct non-loop edges.
    while len(keys) < m:
        size = int((m - len(keys)) * 1.2) + 64
        src, dst = _draw(rng, cdf_out, size), _draw(rng, cdf_in, size)
        keys = _distinct(np.concatenate([keys, (src * n + dst)[src != dst]]))
    keys = keys[:m]
    src_idx, dst_idx = keys // n, keys % n

    camp = rng.random(n) < shape.minority
    agree = np.where(camp[src_idx] == camp[dst_idx], shape.beta, -shape.beta)
    score = agree + rng.standard_normal(m)
    n_neg = m - int(round(shape.pos_share * m))
    sign = np.ones(m, dtype=np.int8)
    sign[np.argsort(score, kind="stable")[:n_neg]] = -1

    order = rng.permutation(m)  # file order; ids are assigned by first appearance
    return SignedEdges(src_idx[order], dst_idx[order], sign[order], n)


def _write_lines(path: Path, lines) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")


def write_csv_rating(path: Path, g: SignedEdges, seed: int) -> None:
    """SNAP Bitcoin form: SOURCE,TARGET,RATING,TIME with 1-based raw ids."""
    rng = np.random.default_rng(seed)
    raw = rng.permutation(g.n) + 1
    magnitude = np.minimum(rng.geometric(0.45, size=len(g.sign)), 10)
    rating = magnitude * g.sign
    time = 1_289_000_000 + np.sort(rng.integers(0, 170_000_000, size=len(g.sign)))
    _write_lines(
        path,
        (f"{s},{d},{r},{t}" for s, d, r, t in
         zip(raw[g.src].tolist(), raw[g.dst].tolist(), rating.tolist(), time.tolist())),
    )


def write_tsv_sign(path: Path, g: SignedEdges, seed: int) -> None:
    """SNAP Epinions form: `#` header, then src<TAB>dst<TAB>sign with raw ids."""
    rng = np.random.default_rng(seed)
    raw = rng.permutation(g.n)
    header = [
        "# Directed graph: synthetic signed graph (Epinions-shaped)",
        f"# Nodes: {g.n} Edges: {len(g.sign)}",
        "# FromNodeId\tToNodeId\tSign",
    ]
    body = (f"{s}\t{d}\t{x}" for s, d, x in
            zip(raw[g.src].tolist(), raw[g.dst].tolist(), g.sign.tolist()))
    _write_lines(path, [*header, *body])


def write_dense_tsv(path: Path, g: SignedEdges) -> None:
    """Dense-id `edges.tsv` as `sgdnet prep` writes it."""
    _write_lines(
        path,
        (f"{s}\t{d}\t{x}" for s, d, x in zip(g.src.tolist(), g.dst.tolist(), g.sign.tolist())),
    )


def write_sgdf(path: Path, x: np.ndarray) -> None:
    """Feature file: b"SGDF", u32 version 1, u64 n, u64 d, row-major <f8."""
    x = np.ascontiguousarray(x, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(b"SGDF")
        fh.write(struct.pack("<IQQ", 1, x.shape[0], x.shape[1]))
        fh.write(x.tobytes())


def random_features(n: int, d: int, seed: int) -> np.ndarray:
    """A seeded n x d draw; training cost does not depend on feature values."""
    return np.random.default_rng(seed).standard_normal((n, d))
