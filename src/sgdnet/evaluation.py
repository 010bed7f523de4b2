"""Edge splitting, AUC and F1-macro metrics, and the multi-seed experiment runner.

The protocol per seed: split the edges 8:2, rebuild the diffusion graph from
the training edges only, compute SVD features on that training graph, train,
then score the held-out edges. AUC uses the positive-class softmax
probability; F1-macro uses the argmax sign.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .diffusion import DiffusionConfig
from .features import init_features
from .graph import EdgeList, SignedDigraph, as_edge_list, build_graph, normalize
from .model import EdgeBatch, ModelParams, edge_logits, model_forward, softmax
from .seeding import spawn_seeds
from .training import TrainConfig, train


class MetricError(ValueError):
    """A metric is undefined for the given inputs (e.g. single-class AUC)."""


@dataclass(frozen=True)
class Split:
    train: EdgeList
    test: EdgeList
    seed: int
    ratio: float


def split_edges(edges, ratio: float, seed: int) -> Split:
    """Seeded uniform shuffle; the first floor(ratio * m) edges become the
    test set and the rest the training set."""
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"split ratio must lie in (0, 1), got {ratio}")
    edges = as_edge_list(edges)
    m = len(edges)
    if m < 5:
        raise ValueError(f"need at least 5 edges to split, got {m}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(m)
    n_test = int(ratio * m)
    return Split(train=edges[order[n_test:]], test=edges[order[:n_test]], seed=seed, ratio=ratio)


def _midranks(values: np.ndarray) -> np.ndarray:
    """Ranks starting at 1; tied values share the mean of their ranks."""
    order = np.argsort(values, kind="mergesort")
    sorted_vals = values[order]
    # Tie group k spans sorted positions first[k]..last[k].
    first = np.flatnonzero(np.r_[True, sorted_vals[1:] != sorted_vals[:-1]])
    last = np.r_[first[1:], len(values)] - 1
    ranks = np.empty(len(values), dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (first + last) + 1.0, last - first + 1)
    return ranks


def auc(scores, labels) -> float:
    """Rank-statistic AUC with midranks for ties.

    `labels` hold the positive class as +1 (anything > 0). Raises MetricError
    when only one class is present.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = labels > 0
    n_pos = int(pos.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise MetricError("AUC undefined: both classes must be present")
    ranks = _midranks(scores)
    rank_sum = float(ranks[pos].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def class_metrics(predictions, labels) -> dict[int, dict[str, float]]:
    """Per-sign precision, recall, and F1; empty denominators count as 0."""
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    out = {}
    for sign in (1, -1):
        pred_s = predictions == sign
        true_s = labels == sign
        tp = int(np.sum(pred_s & true_s))
        precision = tp / pred_s.sum() if pred_s.sum() else 0.0
        recall = tp / true_s.sum() if true_s.sum() else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        out[sign] = {"precision": precision, "recall": recall, "f1": f1}
    return out


def f1_macro(predictions, labels) -> float:
    """Unweighted mean of the per-sign F1 scores."""
    per_class = class_metrics(predictions, labels)
    return 0.5 * (per_class[1]["f1"] + per_class[-1]["f1"])


@dataclass
class MetricReport:
    auc: float | None
    f1_macro: float
    per_class: dict[int, dict[str, float]]


def score_report(scores, predictions, labels) -> MetricReport:
    """Assemble a MetricReport; AUC is None when undefined."""
    try:
        auc_value = auc(scores, labels)
    except MetricError:
        auc_value = None
    return MetricReport(
        auc=auc_value,
        f1_macro=f1_macro(predictions, labels),
        per_class=class_metrics(predictions, labels),
    )


def predict_edges(
    graph: SignedDigraph,
    x: np.ndarray,
    params: ModelParams,
    dcfg: DiffusionConfig,
    batch: EdgeBatch,
) -> tuple[np.ndarray, np.ndarray]:
    """Score edges with a deterministic forward pass (zero negative-channel
    start), returning positive-class probabilities and argmax signs."""
    eval_cfg = DiffusionConfig(c=dcfg.c, k_steps=dcfg.k_steps, m0_mode="zero")
    h_final, _ = model_forward(normalize(graph), x, params, eval_cfg)
    logits = edge_logits(h_final, batch, params.w_head)
    probs = softmax(logits)
    p_plus = probs[:, 0]
    preds = np.where(p_plus >= 0.5, 1, -1)
    return p_plus, preds


@dataclass
class ExperimentConfig:
    svd_rank: int = 128
    dim: int = 32
    n_layers: int = 1
    c: float = 0.35
    k_steps: int = 10
    lr: float = 0.01
    weight_decay: float = 1e-3
    epochs: int = 100
    ratio: float = 0.2
    m0_mode: str = "uniform"

    def __post_init__(self):
        if self.svd_rank < 1:
            raise ValueError(f"svd_rank must be positive, got {self.svd_rank}")
        if not 0.0 < self.ratio < 1.0:
            raise ValueError(f"split ratio must lie in (0, 1), got {self.ratio}")
        # Delegates the remaining field checks.
        TrainConfig(
            dim=self.dim, n_layers=self.n_layers, c=self.c, k_steps=self.k_steps,
            lr=self.lr, weight_decay=self.weight_decay, epochs=self.epochs,
            m0_mode=self.m0_mode,
        )


@dataclass
class SeedResult:
    seed: int
    auc: float
    f1_macro: float


@dataclass
class ExperimentResult:
    rows: list[SeedResult] = field(default_factory=list)

    def _agg(self, values):
        mean = float(np.mean(values))
        std = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
        return mean, std

    @property
    def auc_mean_std(self):
        return self._agg([r.auc for r in self.rows])

    @property
    def f1_mean_std(self):
        return self._agg([r.f1_macro for r in self.rows])


def run_seed(edges, n: int, config: ExperimentConfig, seed: int) -> SeedResult:
    """One full protocol run: split, features, train, score the test edges."""
    split_seed, svd_seed, train_seed = spawn_seeds(seed, 3)
    split = split_edges(edges, config.ratio, split_seed)
    train_graph = build_graph(split.train, n)

    rank = min(config.svd_rank, n)
    x = init_features(train_graph, rank, seed=svd_seed)

    tcfg = TrainConfig(
        dim=config.dim,
        n_layers=config.n_layers,
        c=config.c,
        k_steps=config.k_steps,
        lr=config.lr,
        weight_decay=config.weight_decay,
        epochs=config.epochs,
        m0_mode=config.m0_mode,
        seed=train_seed,
    )
    params, _ = train(train_graph, x, tcfg)

    test_batch = EdgeBatch.from_edges(split.test)
    p_plus, preds = predict_edges(train_graph, x, params, tcfg.diffusion(), test_batch)
    return SeedResult(
        seed=seed,
        auc=auc(p_plus, test_batch.signs),
        f1_macro=f1_macro(preds, test_batch.signs),
    )


def run_experiment(edges, n: int, config: ExperimentConfig, seeds) -> ExperimentResult:
    """Repeat the protocol across seeds and aggregate mean and sample std."""
    result = ExperimentResult()
    for seed in seeds:
        result.rows.append(run_seed(edges, n, config, seed))
    return result
