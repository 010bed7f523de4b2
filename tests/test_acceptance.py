"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Dataset-dependent criteria look for the Bitcoin trust graphs under ./data (or
$SGDNET_DATA) and skip with instructions when the files are absent; everything
else runs on synthetic inputs.
"""

import time

import numpy as np
import pytest

from sgdnet.diffusion import (
    DiffusionConfig,
    diffuse,
    diffusion_steps,
    error_bound,
    exact_solve,
    l1_distance,
)
from sgdnet.evaluation import ExperimentConfig, mean_std, run_seed
from sgdnet.features import init_features
from sgdnet.graph import build_graph, load_edge_list, normalize
from sgdnet.training import TrainConfig, train
from sgdnet.evaluation import f1_macro, predict_edges

from helpers import (
    adjoint,
    bitcoin_alpha_path,
    bitcoin_otc_path,
    column_sums_of_b,
    edge_rows,
    grad_check,
)
from synthetic import planted_partition_graph, random_signed_graph

NO_ALPHA = "Bitcoin-Alpha dataset not present (place soc-sign-bitcoinalpha.csv in ./data)"
NO_OTC = "Bitcoin-OTC dataset not present (place soc-sign-bitcoinotc.csv in ./data)"


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"\n[criterion {num}] {name}: {status}{suffix}")
    return ok


def _random_suite(count=50, max_n=100):
    graphs = []
    for seed in range(count):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(10, max_n + 1))
        graphs.append(
            random_signed_graph(
                n,
                avg_out_degree=float(rng.uniform(2.0, 6.0)),
                neg_fraction=float(rng.uniform(0.1, 0.5)),
                deadend_fraction=float(rng.uniform(0.0, 0.3)),
                seed=seed,
            )
        )
    return graphs


# -------------------------------------------------------------- criterion 1


@pytest.mark.skipif(bitcoin_alpha_path() is None, reason=NO_ALPHA)
def test_criterion_1_bitcoin_alpha_reproduction():
    edges, n, _ = load_edge_list(bitcoin_alpha_path(), "csv-rating")
    config = ExperimentConfig(
        svd_rank=128, dim=32, n_layers=1, c=0.35, k_steps=10,
        lr=0.01, weight_decay=1e-3, epochs=100, ratio=0.2,
    )
    rows = [run_seed(edges, n, config, seed) for seed in range(10)]
    auc_mean, auc_std = mean_std([row.auc for row in rows])
    f1_mean, f1_std = mean_std([row.f1_macro for row in rows])
    ok = abs(auc_mean - 0.911) <= 0.02 and abs(f1_mean - 0.757) <= 0.03
    assert _verdict(
        1, "bitcoin-alpha reproduction", ok,
        f"auc {auc_mean:.3f}+/-{auc_std:.3f} target 0.911+/-0.02; "
        f"f1 {f1_mean:.3f}+/-{f1_std:.3f} target 0.757+/-0.03",
    )


# -------------------------------------------------------------- criterion 2


@pytest.mark.skipif(bitcoin_otc_path() is None, reason=NO_OTC)
def test_criterion_2_bitcoin_otc_reproduction():
    edges, n, _ = load_edge_list(bitcoin_otc_path(), "csv-rating")
    config = ExperimentConfig(
        svd_rank=128, dim=32, n_layers=2, c=0.25, k_steps=10,
        lr=0.01, weight_decay=1e-3, epochs=100, ratio=0.2,
    )
    rows = [run_seed(edges, n, config, seed) for seed in range(10)]
    auc_mean, auc_std = mean_std([row.auc for row in rows])
    f1_mean, f1_std = mean_std([row.f1_macro for row in rows])
    ok = abs(auc_mean - 0.921) <= 0.02 and abs(f1_mean - 0.799) <= 0.03
    assert _verdict(
        2, "bitcoin-otc reproduction", ok,
        f"auc {auc_mean:.3f}+/-{auc_std:.3f} target 0.921+/-0.02; "
        f"f1 {f1_mean:.3f}+/-{f1_std:.3f} target 0.799+/-0.03",
    )


# -------------------------------------------------------------- criterion 3


def test_criterion_3_convergence_theorem():
    violations = 0
    checked = 0
    for g in _random_suite(50):
        na = normalize(g)
        rng = np.random.default_rng(g.n)
        h = rng.standard_normal((g.n, 3))
        for c in (0.15, 0.5, 0.85):
            star = exact_solve(na, h, c)
            cfg = DiffusionConfig(c=c, k_steps=20, m0_mode="zero")
            t0 = None
            for k, state in enumerate(diffusion_steps(na, h, cfg)):
                if k == 0:
                    t0 = state
                    continue
                checked += 1
                if l1_distance(star, state) > error_bound(t0, star, c, k) + 1e-12:
                    violations += 1
    ok = violations == 0
    assert _verdict(
        3, "convergence contraction bound", ok,
        f"{checked} bound checks, {violations} violations",
    )


# -------------------------------------------------------------- criterion 4


def test_criterion_4_spectral_radius_bound():
    graphs = _random_suite(50)
    graphs.append(planted_partition_graph(n=40, seed=0))
    graphs.append(build_graph([], 5))
    for path, fmt in ((bitcoin_alpha_path(), "csv-rating"), (bitcoin_otc_path(), "csv-rating")):
        if path is not None:
            edges, n, _ = load_edge_list(path, fmt)
            graphs.append(build_graph(edges, n))

    tol = 1e-12
    worst_excess = -np.inf
    ok = True
    for g in graphs:
        sums = column_sums_of_b(normalize(g))
        non_deadend = np.concatenate([g.out_degree, g.out_degree]) > 0
        worst_excess = max(worst_excess, float(sums.max()) - 1.0 if sums.size else -1.0)
        if sums.size and sums.max() > 1.0 + tol:
            ok = False
        if non_deadend.any() and np.abs(sums[non_deadend] - 1.0).max() > tol:
            ok = False
        if (~non_deadend).any() and np.any(sums[~non_deadend] != 0.0):
            ok = False
    assert _verdict(
        4, "block operator column sums <= 1", ok,
        f"{len(graphs)} graphs, worst excess over 1: {worst_excess:.2e}",
    )


# -------------------------------------------------------------- criterion 5


def test_criterion_5_gradient_suite():
    worst_grad = 0.0
    grad_ok = True
    for seed in range(5):
        for n_layers, k_steps in ((1, 3), (2, 5)):
            report = grad_check(seed=seed, n_layers=n_layers, k_steps=k_steps)
            worst_grad = max(worst_grad, report.max_error)
            grad_ok = grad_ok and report.passed

    worst_dot = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(5, 40)), int(rng.integers(1, 5))
        g = random_signed_graph(n, avg_out_degree=3.0, deadend_fraction=0.2, seed=seed)
        na = normalize(g)
        cfg = DiffusionConfig(
            c=float(rng.uniform(0.1, 0.9)), k_steps=int(rng.integers(1, 8)),
            m0_mode="zero",
        )
        x = rng.standard_normal((n, d))
        yp = rng.standard_normal((n, d))
        ym = rng.standard_normal((n, d))
        p, m = diffuse(na, x, cfg)
        lhs = float((p * yp).sum() + (m * ym).sum())
        rhs = float((x * adjoint(na, yp, ym, cfg)).sum())
        worst_dot = max(worst_dot, abs(lhs - rhs) / max(1.0, abs(lhs)))
    dot_ok = worst_dot < 1e-10

    ok = grad_ok and dot_ok
    assert _verdict(
        5, "gradient and adjoint suite", ok,
        f"max fd rel err {worst_grad:.2e} (tol 1e-4); "
        f"max adjoint rel err {worst_dot:.2e} (tol 1e-10)",
    )


# -------------------------------------------------------------- criterion 6


@pytest.mark.skipif(bitcoin_alpha_path() is None, reason=NO_ALPHA)
def test_criterion_6_diffusion_depth_trend():
    edges, n, _ = load_edge_list(bitcoin_alpha_path(), "csv-rating")
    means = {}
    for k_steps in (1, 10):
        config = ExperimentConfig(
            svd_rank=128, dim=32, n_layers=1, c=0.15, k_steps=k_steps,
            lr=0.01, weight_decay=1e-3, epochs=100, ratio=0.2,
        )
        rows = [run_seed(edges, n, config, seed) for seed in range(5)]
        means[k_steps], _ = mean_std([row.f1_macro for row in rows])
    ok = means[10] > means[1]
    assert _verdict(
        6, "f1 improves with diffusion depth", ok,
        f"f1 at K=1 {means[1]:.3f}, at K=10 {means[10]:.3f}",
    )


# -------------------------------------------------------------- criterion 7


@pytest.mark.skipif(bitcoin_alpha_path() is None, reason=NO_ALPHA)
def test_criterion_7_injection_ratio_trend():
    edges, n, _ = load_edge_list(bitcoin_alpha_path(), "csv-rating")
    means = {}
    for c in (0.35, 0.95):
        config = ExperimentConfig(
            svd_rank=128, dim=32, n_layers=1, c=c, k_steps=10,
            lr=0.01, weight_decay=1e-3, epochs=100, ratio=0.2,
        )
        rows = [run_seed(edges, n, config, seed) for seed in range(5)]
        means[c], _ = mean_std([row.f1_macro for row in rows])
    ok = means[0.35] > means[0.95]
    assert _verdict(
        7, "moderate injection ratio beats extreme", ok,
        f"f1 at c=0.35 {means[0.35]:.3f}, at c=0.95 {means[0.95]:.3f}",
    )


# -------------------------------------------------------------- criterion 8


def _interleaved_times(fns, rounds=7):
    """CPU times, rounds x functions, with every function timed once per
    round, so that clock-speed drift hits every function equally.

    `time.process_time` sums over the process's threads, so the channel walk
    that `diffuse` runs on a second core counts in full, and time spent
    waiting for a core that another process holds does not count at all."""
    for fn in fns:
        fn()  # warmup
    times = np.empty((rounds, len(fns)))
    for r in range(rounds):
        for i, fn in enumerate(fns):
            start = time.process_time()
            fn()
            times[r, i] = time.process_time() - start
    return times


def test_criterion_8_complexity_scaling():
    # Dense enough that arithmetic dominates cache traffic in both the base
    # and the doubled graph; otherwise the doubling ratio is not proportional.
    g = random_signed_graph(5000, avg_out_degree=40.0, deadend_fraction=0.05, seed=0)
    na = normalize(g)
    rng = np.random.default_rng(0)
    h = rng.standard_normal((g.n, 32))

    k_values = np.array([1, 2, 4, 8, 16])

    def run(k):
        cfg = DiffusionConfig(c=0.5, k_steps=int(k), m0_mode="zero")
        return lambda: diffuse(na, h, cfg)

    # Median over the rounds: on a shared host a best-of time depends on
    # when the second core happened to be free for the channel worker.
    times = np.median(_interleaved_times([run(k) for k in k_values]), axis=0)
    slope, intercept = np.polyfit(k_values, times, 1)
    predicted = slope * k_values + intercept
    ss_res = float(((times - predicted) ** 2).sum())
    ss_tot = float(((times - times.mean()) ** 2).sum())
    r_squared = 1.0 - ss_res / ss_tot
    k_ok = r_squared >= 0.98

    # Duplicate the graph: two disjoint copies double both nodes and edges.
    rows = edge_rows(g.edges)
    doubled_edges = rows + [type(e)(e.src + g.n, e.dst + g.n, e.sign) for e in rows]
    g2 = build_graph(doubled_edges, 2 * g.n)
    na2 = normalize(g2)
    h2 = np.vstack([h, h])
    cfg8 = DiffusionConfig(c=0.5, k_steps=8, m0_mode="zero")
    # The median of the per-round ratios: a slow spell on the shared host
    # hits both graphs of a round, and an outlier round does not count.
    pairs = _interleaved_times([lambda: diffuse(na, h, cfg8), lambda: diffuse(na2, h2, cfg8)])
    ratio = float(np.median(pairs[:, 1] / pairs[:, 0]))
    m_ok = 1.4 <= ratio <= 2.6

    ok = k_ok and m_ok
    assert _verdict(
        8, "diffusion cost scales linearly", ok,
        f"R^2 over K {r_squared:.4f} (>=0.98); edge-doubling ratio {ratio:.2f} (2.0 +/- 30%)",
    )


# -------------------------------------------------------------- criterion 9


def test_criterion_9_planted_partition_sanity():
    scores = []
    for seed in range(5):
        g = planted_partition_graph(n=40, seed=seed)
        x = init_features(g, rank=16, seed=seed)
        cfg = TrainConfig(
            dim=16, n_layers=1, c=0.35, k_steps=10, lr=0.01,
            weight_decay=1e-3, epochs=100, m0_mode="uniform", seed=seed,
        )
        params, _ = train(g, x, cfg)
        _, preds = predict_edges(g, x, params, cfg.diffusion(), g.edges)
        scores.append(f1_macro(preds, g.edges.sign))
    ok = all(s >= 0.95 for s in scores)
    assert _verdict(
        9, "planted two-camp training sanity", ok,
        "train f1 per seed: " + ", ".join(f"{s:.3f}" for s in scores),
    )
