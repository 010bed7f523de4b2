import numpy as np
import pytest

from sgdnet.evaluation import (
    ExperimentConfig,
    MetricError,
    _midranks,
    auc,
    class_metrics,
    f1_macro,
    run_experiment,
    score_report,
    split_edges,
)
from sgdnet.graph import SignedEdge
from sgdnet.synthetic import planted_partition_graph

from helpers import brute_force_auc, reference_midranks


def make_edges(m):
    return [SignedEdge(i, i + 1, 1 if i % 3 else -1) for i in range(m)]


# ---------------------------------------------------------------- splits


def test_split_sizes_floor():
    split = split_edges(make_edges(10), 0.2, seed=0)
    assert len(split.test) == 2
    assert len(split.train) == 8


def test_split_sizes_bitcoin_alpha_arithmetic():
    split = split_edges(make_edges(24186), 0.2, seed=1)
    assert len(split.test) == 4837
    assert len(split.train) == 19349


def test_split_deterministic_and_disjoint():
    edges = make_edges(50)
    a = split_edges(edges, 0.2, seed=3)
    b = split_edges(edges, 0.2, seed=3)
    assert a.test == b.test and a.train == b.train
    assert set(a.test).isdisjoint(a.train)
    assert sorted([*a.test, *a.train]) == sorted(edges)
    c = split_edges(edges, 0.2, seed=4)
    assert c.test != a.test


def test_split_takes_the_test_edges_first_in_permutation_order():
    edges = make_edges(20)
    order = np.random.default_rng(7).permutation(20)
    split = split_edges(edges, 0.25, seed=7)
    assert list(split.test) == [edges[i] for i in order[:5]]
    assert list(split.train) == [edges[i] for i in order[5:]]


def test_split_ratio_validation():
    with pytest.raises(ValueError):
        split_edges(make_edges(10), 0.0, seed=0)
    with pytest.raises(ValueError):
        split_edges(make_edges(10), 1.0, seed=0)
    with pytest.raises(ValueError):
        split_edges(make_edges(4), 0.2, seed=0)


# ---------------------------------------------------------------- midranks


def midrank_cases():
    rng = np.random.default_rng(0)
    yield "no_ties", rng.permutation(500) + rng.random(500)
    yield "all_ties", np.full(300, 0.25)
    yield "mixed_ties", rng.integers(0, 20, size=1000).astype(np.float64)
    yield "mixed_ties_with_runs", np.repeat(rng.random(40), rng.integers(1, 9, size=40))
    yield "signed_zeros_and_nan", np.array([0.0, -0.0, np.nan, 1.0, np.nan, 0.0, -1.0])
    yield "one", np.array([3.0])
    yield "empty", np.array([])


@pytest.mark.parametrize("name, values", list(midrank_cases()))
def test_midranks_match_the_tie_group_loop(name, values):
    got = _midranks(values)
    want = reference_midranks(values)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", range(5))
def test_auc_with_ties_matches_the_tie_group_loop(seed):
    rng = np.random.default_rng(seed)
    scores = np.round(rng.random(400), 1)
    labels = np.where(rng.random(400) < 0.7, 1, -1)
    pos = labels > 0
    n_pos, n_neg = int(pos.sum()), int((~pos).sum())
    want = (float(reference_midranks(scores)[pos].sum()) - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
    assert auc(scores, labels) == want


# ---------------------------------------------------------------- auc


def test_auc_perfect_separation():
    assert auc([0.9, 0.8, 0.2, 0.1], [1, 1, -1, -1]) == 1.0


def test_auc_spec_example():
    assert auc([0.9, 0.6, 0.4], [1, -1, 1]) == 0.5


def test_auc_all_ties_is_half():
    assert auc([0.5, 0.5, 0.5, 0.5], [1, -1, 1, -1]) == 0.5


def test_auc_single_class_raises():
    with pytest.raises(MetricError):
        auc([0.1, 0.2], [1, 1])


@pytest.mark.parametrize("seed", range(200))
def test_auc_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    size = int(rng.integers(2, 50))
    # Quantized scores force plenty of ties.
    scores = np.round(rng.random(size), 1)
    labels = rng.choice([1, -1], size=size)
    if np.all(labels == labels[0]):
        labels[0] = -labels[0]
    assert abs(auc(scores, labels) - brute_force_auc(scores, labels)) < 1e-12


# ---------------------------------------------------------------- f1


def test_f1_all_correct():
    assert f1_macro([1, -1, 1], [1, -1, 1]) == 1.0


def test_f1_confusion_arithmetic():
    labels = [1, 1, -1, -1]
    preds = [1, -1, -1, -1]
    assert np.isclose(f1_macro(preds, labels), 11.0 / 15.0)


def test_f1_degenerate_prediction():
    labels = [1, 1, -1, -1]
    preds = [1, 1, 1, 1]
    assert np.isclose(f1_macro(preds, labels), (2.0 / 3.0) / 2.0)


def test_f1_swap_invariance():
    rng = np.random.default_rng(5)
    labels = rng.choice([1, -1], size=40)
    preds = rng.choice([1, -1], size=40)
    assert np.isclose(f1_macro(preds, labels), f1_macro(-preds, -labels))


def test_class_metrics_fields():
    metrics = class_metrics([1, -1, 1, 1], [1, -1, -1, 1])
    assert metrics[1]["precision"] == 2.0 / 3.0
    assert metrics[1]["recall"] == 1.0
    assert metrics[-1]["recall"] == 0.5


def test_score_report_single_class_auc_is_none():
    report = score_report([0.6, 0.7], [1, 1], [1, 1])
    assert report.auc is None
    assert 0.0 <= report.f1_macro <= 1.0


# ---------------------------------------------------------------- experiments


def test_run_experiment_on_planted_graph():
    g = planted_partition_graph(n=40, avg_out_degree=8.0, seed=0)
    config = ExperimentConfig(
        svd_rank=16, dim=16, n_layers=1, c=0.35, k_steps=5,
        lr=0.01, weight_decay=1e-3, epochs=60, ratio=0.2,
    )
    result = run_experiment(list(g.edges), g.n, config, seeds=[0, 1])
    assert len(result.rows) == 2
    auc_mean, auc_std = result.auc_mean_std
    f1_mean, f1_std = result.f1_mean_std
    assert 0.5 < auc_mean <= 1.0
    assert 0.0 <= f1_mean <= 1.0
    assert auc_std >= 0.0 and f1_std >= 0.0


def test_run_experiment_single_seed_has_zero_std():
    g = planted_partition_graph(n=24, avg_out_degree=8.0, seed=1)
    config = ExperimentConfig(
        svd_rank=8, dim=8, n_layers=1, c=0.35, k_steps=3,
        lr=0.01, epochs=10, ratio=0.2,
    )
    result = run_experiment(list(g.edges), g.n, config, seeds=[7])
    _, auc_std = result.auc_mean_std
    _, f1_std = result.f1_mean_std
    assert auc_std == 0.0 and f1_std == 0.0


def test_run_experiment_deterministic():
    g = planted_partition_graph(n=24, avg_out_degree=8.0, seed=2)
    config = ExperimentConfig(
        svd_rank=8, dim=8, n_layers=1, c=0.35, k_steps=3,
        lr=0.01, epochs=5, ratio=0.2,
    )
    a = run_experiment(list(g.edges), g.n, config, seeds=[0])
    b = run_experiment(list(g.edges), g.n, config, seeds=[0])
    assert a.rows[0].auc == b.rows[0].auc
    assert a.rows[0].f1_macro == b.rows[0].f1_macro


def test_test_edges_never_in_training_graph():
    g = planted_partition_graph(n=40, avg_out_degree=8.0, seed=3)
    split = split_edges(list(g.edges), 0.2, seed=5)
    train_pairs = {(e.src, e.dst) for e in split.train}
    test_pairs = {(e.src, e.dst) for e in split.test}
    assert train_pairs.isdisjoint(test_pairs)
