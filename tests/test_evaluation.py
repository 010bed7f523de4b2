from dataclasses import replace

import numpy as np
import pytest

import sgdnet.evaluation
import sgdnet.graph
from sgdnet.evaluation import (
    ExperimentConfig,
    MetricError,
    _midranks,
    auc,
    class_metrics,
    f1_macro,
    mean_std,
    predict_edges,
    run_seed,
    split_edges,
)
from sgdnet.graph import SignedEdge, normalize
from sgdnet.model import edge_logits, model_forward
from sgdnet.training import ModelConfig, TrainConfig, train

from helpers import brute_force_auc, edge_rows, exactly, reference_midranks, reference_softmax
from synthetic import planted_partition_graph


def make_edges(m):
    return [SignedEdge(i, i + 1, 1 if i % 3 else -1) for i in range(m)]


# ---------------------------------------------------------------- configs

SHARED_FIELDS = ("dim", "n_layers", "c", "k_steps", "lr", "weight_decay", "epochs", "m0_mode")


def test_train_config_maps_every_shared_field():
    settings = dict(dim=5, n_layers=3, c=0.6, k_steps=7, lr=0.05, weight_decay=0.02,
                    epochs=9, m0_mode="zero")
    config = ExperimentConfig(svd_rank=11, ratio=0.3, **settings)
    tcfg = config.train_config(42)
    assert {name: getattr(tcfg, name) for name in SHARED_FIELDS} == settings
    assert tcfg.seed == 42
    assert all(settings[name] != getattr(TrainConfig(), name) for name in SHARED_FIELDS)


def test_experiment_and_train_config_defaults_agree():
    # Both inherit the fields from ModelConfig, which keeps
    # `ExperimentConfig().epochs` and the like working.
    exp, tcfg = ExperimentConfig(), TrainConfig()
    assert [getattr(exp, name) for name in SHARED_FIELDS] == [
        getattr(tcfg, name) for name in SHARED_FIELDS
    ]


def test_experiment_config_validates_the_training_fields():
    with pytest.raises(ValueError):
        ExperimentConfig(c=1.5)
    with pytest.raises(ValueError):
        ExperimentConfig(m0_mode="gaussian")


@pytest.mark.parametrize("config, field, value, message", [
    (ModelConfig, "dim", 0, "dim and n_layers must be positive, got 0, 1"),
    (ExperimentConfig, "svd_rank", 0, "svd_rank must be positive, got 0"),
    (ExperimentConfig, "ratio", 0.0, "split ratio must lie in (0, 1), got 0.0"),
    (ExperimentConfig, "ratio", 1.0, "split ratio must lie in (0, 1), got 1.0"),
])
def test_configs_reject_an_out_of_range_field(config, field, value, message):
    with pytest.raises(ValueError, match=exactly(message)):
        config(**{field: value})


@pytest.mark.parametrize("config", [TrainConfig, ExperimentConfig])
@pytest.mark.parametrize("field", ["lr", "weight_decay"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_configs_reject_non_finite_rates(config, field, value):
    with pytest.raises(ValueError, match="must be finite"):
        config(**{field: value})


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
    a_test, a_train = edge_rows(a.test), edge_rows(a.train)
    assert a_test == edge_rows(b.test) and a_train == edge_rows(b.train)
    assert set(a_test).isdisjoint(a_train)
    assert sorted([*a_test, *a_train]) == sorted(edges)
    c = split_edges(edges, 0.2, seed=4)
    assert edge_rows(c.test) != a_test


def test_split_takes_the_test_edges_first_in_permutation_order():
    edges = make_edges(20)
    order = np.random.default_rng(7).permutation(20)
    split = split_edges(edges, 0.25, seed=7)
    assert edge_rows(split.test) == [edges[i] for i in order[:5]]
    assert edge_rows(split.train) == [edges[i] for i in order[5:]]


def test_split_ratio_validation():
    with pytest.raises(ValueError):
        split_edges(make_edges(10), 0.0, seed=0)
    with pytest.raises(ValueError):
        split_edges(make_edges(10), 1.0, seed=0)
    with pytest.raises(ValueError):
        split_edges(make_edges(4), 0.2, seed=0)


def test_split_that_leaves_no_test_edge_rejected():
    with pytest.raises(ValueError, match=r"split ratio 0\.1 leaves no test edge among m=9"):
        split_edges(make_edges(9), 0.1, seed=0)
    split = split_edges(make_edges(10), 0.1, seed=0)
    assert (len(split.test), len(split.train)) == (1, 9)


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


# ---------------------------------------------------------------- experiments


def test_run_seed_on_planted_graph():
    g = planted_partition_graph(n=40, avg_out_degree=8.0, seed=0)
    config = ExperimentConfig(
        svd_rank=16, dim=16, n_layers=1, c=0.35, k_steps=5,
        lr=0.01, weight_decay=1e-3, epochs=60, ratio=0.2,
    )
    rows = [run_seed(edge_rows(g.edges), g.n, config, seed) for seed in (0, 1)]
    assert [row.seed for row in rows] == [0, 1]
    auc_mean, auc_std = mean_std([row.auc for row in rows])
    f1_mean, f1_std = mean_std([row.f1_macro for row in rows])
    assert 0.5 < auc_mean <= 1.0
    assert 0.0 <= f1_mean <= 1.0
    assert auc_std >= 0.0 and f1_std >= 0.0


def test_run_seed_single_seed_has_zero_std():
    g = planted_partition_graph(n=24, avg_out_degree=8.0, seed=1)
    config = ExperimentConfig(
        svd_rank=8, dim=8, n_layers=1, c=0.35, k_steps=3,
        lr=0.01, epochs=10, ratio=0.2,
    )
    rows = [run_seed(edge_rows(g.edges), g.n, config, seed=7)]
    _, auc_std = mean_std([row.auc for row in rows])
    _, f1_std = mean_std([row.f1_macro for row in rows])
    assert auc_std == 0.0 and f1_std == 0.0


def test_run_seed_normalizes_the_training_graph_once(monkeypatch):
    built = []
    init = sgdnet.graph.NormalizedAdjacency.__init__

    def counting_init(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(sgdnet.graph.NormalizedAdjacency, "__init__", counting_init)
    g = planted_partition_graph(n=24, avg_out_degree=8.0, seed=2)
    config = ExperimentConfig(
        svd_rank=8, dim=8, n_layers=1, c=0.35, k_steps=3,
        lr=0.01, epochs=5, ratio=0.2,
    )
    run_seed(edge_rows(g.edges), g.n, config, seed=0)
    assert len(built) == 1


def test_run_seed_deterministic():
    g = planted_partition_graph(n=24, avg_out_degree=8.0, seed=2)
    config = ExperimentConfig(
        svd_rank=8, dim=8, n_layers=1, c=0.35, k_steps=3,
        lr=0.01, epochs=5, ratio=0.2,
    )
    a = run_seed(edge_rows(g.edges), g.n, config, seed=0)
    b = run_seed(edge_rows(g.edges), g.n, config, seed=0)
    assert a.auc == b.auc
    assert a.f1_macro == b.f1_macro


def test_mean_std_of_one_value_has_zero_std():
    assert mean_std([0.75]) == (0.75, 0.0)


def test_mean_std_uses_the_sample_std():
    values = [0.61, 0.83]
    mean, std = mean_std(values)
    assert mean == float(np.mean(values))
    assert std == float(np.std(values, ddof=1))
    assert std > float(np.std(values))


def test_mean_std_of_no_values_raises():
    with pytest.raises(ValueError, match="at least one value"):
        mean_std([])


def test_test_edges_never_in_training_graph():
    g = planted_partition_graph(n=40, avg_out_degree=8.0, seed=3)
    split = split_edges(edge_rows(g.edges), 0.2, seed=5)
    train_pairs = {(e.src, e.dst) for e in edge_rows(split.train)}
    test_pairs = {(e.src, e.dst) for e in edge_rows(split.test)}
    assert train_pairs.isdisjoint(test_pairs)


def test_predict_edges_probabilities_are_bitwise_the_row_wise_softmax():
    g = planted_partition_graph(n=48, seed=0)
    x = np.random.default_rng(1).standard_normal((g.n, 6))
    cfg = TrainConfig(dim=4, n_layers=2, epochs=5, seed=2)
    params, _ = train(g, x, cfg)
    p_plus, _ = predict_edges(g, x, params, cfg.diffusion(), g.edges)

    zero_start = replace(cfg.diffusion(), m0_mode="zero")
    h_final, _ = model_forward(normalize(g), x, params, zero_start)
    reference = reference_softmax(edge_logits(h_final, g.edges, params.w_head))[:, 0]
    assert np.array_equal(p_plus, reference)
