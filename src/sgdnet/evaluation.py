"""Edge splitting, AUC and F1-macro metrics, and the multi-seed experiment runner.

The protocol per seed: split the edges 8:2, rebuild the diffusion graph from
the training edges only, compute SVD features on that training graph, train,
then score the held-out edges. AUC uses the positive-class softmax
probability; F1-macro uses the argmax sign. `run_experiment` yields each
seed's `SeedResult` as its run ends, and `mean_std` aggregates one metric
over the seeds as its mean and sample standard deviation.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Iterator

import numpy as np

from .diffusion import DiffusionConfig
from .features import init_features
from .graph import EdgeList, SignedDigraph, as_edge_list, build_graph, normalize
from .model import EdgeBatch, ModelParams, edge_logits, model_forward, softmax
from .seeding import spawn_seeds
from .training import ModelConfig, TrainConfig, train


class MetricError(ValueError):
    """A metric is undefined for the given inputs (e.g. single-class AUC)."""


@dataclass(frozen=True)
class Split:
    train: EdgeList
    test: EdgeList


def split_edges(edges, ratio: float, seed: int) -> Split:
    """Seeded uniform shuffle; the first floor(ratio * m) edges, which must be
    at least one, become the test set and the rest the training set."""
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"split ratio must lie in (0, 1), got {ratio}")
    edges = as_edge_list(edges)
    m = len(edges)
    if m < 5:
        raise ValueError(f"need at least 5 edges to split, got {m}")
    n_test = int(ratio * m)
    if n_test == 0:
        raise ValueError(f"split ratio {ratio} leaves no test edge among m={m} edges")
    rng = np.random.default_rng(seed)
    order = rng.permutation(m)
    return Split(train=edges[order[n_test:]], test=edges[order[:n_test]])


def _midranks(values: np.ndarray) -> np.ndarray:
    """Ranks starting at 1; tied values share the mean of their ranks.

    A tie group of `count` values ends at rank `end`, so its mean rank is
    end - (count - 1) / 2. Each NaN is a group of its own.
    """
    _, group, counts = np.unique(values, return_inverse=True, return_counts=True, equal_nan=False)
    ends = np.cumsum(counts)
    return (ends - 0.5 * (counts - 1))[group]


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
    per_class = class_metrics(predictions, labels)
    return MetricReport(
        auc=auc_value,
        f1_macro=0.5 * (per_class[1]["f1"] + per_class[-1]["f1"]),
        per_class=per_class,
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
    h_final, _ = model_forward(normalize(graph), x, params, replace(dcfg, m0_mode="zero"))
    logits = edge_logits(h_final, batch, params.w_head)
    probs = softmax(logits)
    p_plus = probs[:, 0]
    preds = np.where(p_plus >= 0.5, 1, -1)
    return p_plus, preds


@dataclass
class ExperimentConfig(ModelConfig):
    svd_rank: int = 128
    ratio: float = 0.2

    def __post_init__(self):
        if self.svd_rank < 1:
            raise ValueError(f"svd_rank must be positive, got {self.svd_rank}")
        if not 0.0 < self.ratio < 1.0:
            raise ValueError(f"split ratio must lie in (0, 1), got {self.ratio}")
        super().__post_init__()

    def train_config(self, seed: int) -> TrainConfig:
        shared = {f.name: getattr(self, f.name) for f in fields(ModelConfig)}
        return TrainConfig(**shared, seed=seed)


@dataclass
class SeedResult:
    seed: int
    auc: float
    f1_macro: float


def _split_features(edges, n: int, ratio: float, svd_rank: int, seed: int):
    """The protocol's first steps for one run seed: split the edges, rebuild
    the graph from the training edges, and take its SVD features. Returns
    (split, training graph, features, training seed)."""
    split_seed, svd_seed, train_seed = spawn_seeds(seed, 3)
    split = split_edges(edges, ratio, split_seed)
    graph = build_graph(split.train, n)
    x = init_features(graph, min(svd_rank, n), seed=svd_seed)
    return split, graph, x, train_seed


def run_seed(edges, n: int, config: ExperimentConfig, seed: int) -> SeedResult:
    """One full protocol run: split, features, train, score the test edges."""
    split, train_graph, x, train_seed = _split_features(
        edges, n, config.ratio, config.svd_rank, seed
    )
    tcfg = config.train_config(train_seed)
    params, _ = train(train_graph, x, tcfg)

    test_batch = EdgeBatch.from_edges(split.test)
    p_plus, preds = predict_edges(train_graph, x, params, tcfg.diffusion(), test_batch)
    return SeedResult(
        seed=seed,
        auc=auc(p_plus, test_batch.signs),
        f1_macro=f1_macro(preds, test_batch.signs),
    )


def run_experiment(edges, n: int, config: ExperimentConfig, seeds) -> Iterator[SeedResult]:
    """Repeat the protocol across seeds, yielding each seed's result as soon
    as its run ends."""
    for seed in seeds:
        yield run_seed(edges, n, config, seed)


def mean_std(values) -> tuple[float, float]:
    """Mean and sample standard deviation (ddof=1; 0.0 for one value)."""
    if len(values) == 0:
        raise ValueError("mean_std needs at least one value")
    std = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
    return float(np.mean(values)), std
