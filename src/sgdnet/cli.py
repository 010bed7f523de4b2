"""Command-line surface: preprocessing, training, evaluation, diffusion
inspection, and multi-seed experiments with persisted artifacts.

Exit codes: 0 success, 2 usage/config/data error, 3 numeric failure.
All randomness funnels through one --seed per run; sub-streams are derived in
a fixed order (split, svd, training) so components stay reproducible.
"""

from __future__ import annotations

import argparse
import os
import sys

from .atomic import atomic_write

_THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# Per-dataset defaults: edge format, layer count, local injection ratio.
DATASETS = {
    "bitcoin-alpha": ("csv-rating", 1, 0.35),
    "bitcoin-otc": ("csv-rating", 2, 0.25),
    "slashdot": ("tsv-sign", 2, 0.55),
    "epinions": ("tsv-sign", 2, 0.55),
    "generic-tsv": ("tsv-sign", 1, 0.35),
    "generic-csv": ("csv-rating", 1, 0.35),
}


def _apply_thread_limit(argv) -> None:
    """Pin BLAS thread pools before numpy is imported; --threads 1 gives
    bitwise-reproducible runs."""
    value = None
    for i, arg in enumerate(argv):
        if arg == "--threads" and i + 1 < len(argv):
            value = argv[i + 1]
        elif arg.startswith("--threads="):
            value = arg.split("=", 1)[1]
    if value is not None:
        for var in _THREAD_ENV_VARS:
            os.environ[var] = str(value)


def _read_config_file(path) -> dict[str, str]:
    """Flat key=value file; '#' comments and blank lines are skipped."""
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _non_negative_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {value}")
    return value


def _add_common(sub):
    sub.add_argument("--config", help="key=value file supplying any flag; flags override")
    sub.add_argument("--threads", type=int, help="BLAS thread count; 1 is bitwise deterministic")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sgdnet",
        description="Signed graph diffusion networks for link sign prediction.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("prep", help="build graph artifacts and SVD features")
    p.add_argument("--input", required=True, help="raw signed edge file")
    p.add_argument("--format", default="tsv-sign", choices=["tsv-sign", "csv-rating"])
    p.add_argument("--out-dir", required=True)
    p.add_argument("--svd-rank", type=_positive_int, default=128)
    p.add_argument("--oversample", type=_non_negative_int, default=10)
    p.add_argument("--power-iters", type=_non_negative_int, default=2)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(func=cmd_prep)

    p = subs.add_parser("train", help="train a model on prepped artifacts")
    p.add_argument("--prep-dir", required=True)
    p.add_argument("--out-dir", help="defaults to --prep-dir")
    p.add_argument("--layers", type=_positive_int, default=1)
    p.add_argument("--c", type=float, default=0.35, help="local injection ratio in (0,1)")
    p.add_argument("--k", type=_positive_int, default=10, help="diffusion steps")
    p.add_argument("--dim", type=_positive_int, default=32)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--weight-decay", type=float, default=1e-3)
    p.add_argument("--epochs", type=_non_negative_int, default=100)
    p.add_argument("--m0", default="uniform", choices=["uniform", "zero"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--split-ratio", type=float, default=0.2,
        help="held-out edge fraction; 0 trains on every prepped edge",
    )
    p.add_argument(
        "--svd-rank", type=_positive_int, default=None,
        help="feature rank when recomputing split features; default: prep rank",
    )
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = subs.add_parser("eval", help="score held-out edges with a checkpoint")
    p.add_argument("--run-dir", required=True, help="directory written by `train`")
    p.add_argument("--test-edges", required=True, help="dense-id TSV edge file")
    p.add_argument("--out", help="predictions CSV; default <run-dir>/predictions.csv")
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    p = subs.add_parser("diffuse", help="emit per-step diffusion residuals as CSV")
    p.add_argument("--prep-dir", required=True)
    p.add_argument("--c", type=float, default=0.5)
    p.add_argument("--k", type=_positive_int, default=10)
    p.add_argument("--m0", default="zero", choices=["zero", "uniform"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="trace CSV; default <prep-dir>/diffusion.csv")
    _add_common(p)
    p.set_defaults(func=cmd_diffuse)

    p = subs.add_parser("experiment", help="multi-seed split/train/eval protocol")
    p.add_argument("--dataset", required=True, choices=sorted(DATASETS))
    p.add_argument("--input", required=True, help="raw signed edge file")
    p.add_argument("--format", choices=["tsv-sign", "csv-rating"],
                   help="override the dataset's edge format")
    p.add_argument("--layers", type=_positive_int, default=None)
    p.add_argument("--c", type=float, default=None)
    p.add_argument("--k", type=_positive_int, default=10)
    p.add_argument("--dim", type=_positive_int, default=32)
    p.add_argument("--svd-rank", type=_positive_int, default=128)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--weight-decay", type=float, default=1e-3)
    p.add_argument("--epochs", type=_non_negative_int, default=100)
    p.add_argument("--ratio", type=float, default=0.2)
    p.add_argument("--m0", default="uniform", choices=["uniform", "zero"])
    p.add_argument("--seeds", type=_positive_int, default=10)
    p.add_argument("--out-dir", default=".")
    _add_common(p)
    p.set_defaults(func=cmd_experiment)

    return parser


def cmd_prep(args) -> int:
    from .features import init_features, save_features
    from .graph import build_graph, load_edge_list, save_edge_list, save_id_map

    edges, n, id_map = load_edge_list(args.input, args.format)
    g = build_graph(edges, n)
    n_pos, n_neg = g.counts()
    m = g.m

    os.makedirs(args.out_dir, exist_ok=True)
    save_edge_list(os.path.join(args.out_dir, "edges.tsv"), g.edges)
    save_id_map(os.path.join(args.out_dir, "idmap.tsv"), id_map)

    rank = min(args.svd_rank, n)
    x = init_features(
        g, rank, seed=args.seed, oversample=args.oversample, power_iters=args.power_iters
    )
    save_features(os.path.join(args.out_dir, "features.sgdf"), x)

    header = "n\tm\tm_plus\tm_minus\trho_plus\trho_minus"
    row = f"{n}\t{m}\t{n_pos}\t{n_neg}\t{100.0 * n_pos / m:.2f}%\t{100.0 * n_neg / m:.2f}%"
    with atomic_write(os.path.join(args.out_dir, "summary.txt")) as fh:
        fh.write(header + "\n" + row + "\n")
    print(header)
    print(row)
    print(f"features: {x.shape[0]} x {x.shape[1]} (rank {rank})")
    return 0


def cmd_train(args) -> int:
    from .evaluation import split_edges
    from .features import init_features, load_features, save_features
    from .graph import build_graph, read_edge_tsv, save_edge_list
    from .model import save_checkpoint
    from .seeding import spawn_seeds
    from .training import TrainConfig, TrainingAbort, train

    if not 0.0 <= args.split_ratio < 1.0:
        raise ValueError(f"--split-ratio must lie in [0, 1), got {args.split_ratio}")

    out_dir = args.out_dir or args.prep_dir
    os.makedirs(out_dir, exist_ok=True)

    edges = read_edge_tsv(os.path.join(args.prep_dir, "edges.tsv"))
    x_full = load_features(os.path.join(args.prep_dir, "features.sgdf"))
    n = x_full.shape[0]

    cfg = TrainConfig(
        dim=args.dim, n_layers=args.layers, c=args.c, k_steps=args.k,
        lr=args.lr, weight_decay=args.weight_decay, epochs=args.epochs,
        m0_mode=args.m0,
    )
    cfg.diffusion()  # validate c, k before any heavy work

    split_seed, svd_seed, train_seed = spawn_seeds(args.seed, 3)
    cfg.seed = train_seed

    if args.split_ratio > 0:
        split = split_edges(edges, args.split_ratio, split_seed)
        graph = build_graph(split.train, n)
        rank = min(args.svd_rank or x_full.shape[1], n)
        x = init_features(graph, rank, seed=svd_seed)
        save_edge_list(os.path.join(out_dir, "test_edges.tsv"), split.test)
    else:
        graph = build_graph(edges, n)
        x = x_full

    save_edge_list(os.path.join(out_dir, "train_edges.tsv"), graph.edges)
    save_features(os.path.join(out_dir, "train_features.sgdf"), x)

    checkpoint_path = os.path.join(out_dir, "checkpoint.sgdn")
    loss_path = os.path.join(out_dir, "loss.csv")

    def write_loss(history):
        with atomic_write(loss_path) as fh:
            fh.write("epoch,loss\n")
            for epoch, loss in enumerate(history):
                fh.write(f"{epoch},{loss:.10g}\n")

    try:
        params, history = train(graph, x, cfg)
    except TrainingAbort as exc:
        save_checkpoint(checkpoint_path, exc.params, cfg.diffusion())
        write_loss(exc.history)
        print(f"error: {exc}", file=sys.stderr)
        print(f"last good checkpoint written to {checkpoint_path}", file=sys.stderr)
        return 3

    save_checkpoint(checkpoint_path, params, cfg.diffusion())
    write_loss(history)
    final = history[-1] if history else float("nan")
    print(f"trained {args.epochs} epochs on {graph.m} edges; final loss {final:.6f}")
    print(f"checkpoint: {checkpoint_path}")
    return 0


def cmd_eval(args) -> int:
    from .evaluation import predict_edges, score_report
    from .features import load_features
    from .graph import build_graph, read_edge_tsv
    from .model import EdgeBatch, load_checkpoint

    params, dcfg = load_checkpoint(os.path.join(args.run_dir, "checkpoint.sgdn"))
    x = load_features(os.path.join(args.run_dir, "train_features.sgdf"))
    train_edges = read_edge_tsv(os.path.join(args.run_dir, "train_edges.tsv"))
    n = x.shape[0]
    graph = build_graph(train_edges, n)

    test_edges = read_edge_tsv(args.test_edges)
    batch = EdgeBatch.from_edges(test_edges)
    p_plus, preds = predict_edges(graph, x, params, dcfg, batch)
    report = score_report(p_plus, preds, batch.signs)

    out_path = args.out or os.path.join(args.run_dir, "predictions.csv")
    with atomic_write(out_path) as fh:
        fh.write("u,v,label,p_plus,pred\n")
        for (u, v), label, prob, pred in zip(batch.uv, batch.signs, p_plus, preds):
            fh.write(f"{u},{v},{label},{prob:.10g},{pred}\n")

    auc_text = "NA" if report.auc is None else f"{report.auc:.4f}"
    print(f"edges     {len(batch)}")
    print(f"auc       {auc_text}")
    print(f"f1_macro  {report.f1_macro:.4f}")
    for sign, name in ((1, "positive"), (-1, "negative")):
        pc = report.per_class[sign]
        print(
            f"{name}  precision {pc['precision']:.4f}  recall {pc['recall']:.4f}"
            f"  f1 {pc['f1']:.4f}"
        )
    print(f"predictions: {out_path}")
    return 0


def cmd_diffuse(args) -> int:
    import numpy as np

    from .diffusion import (
        DiffusionConfig,
        diffusion_steps,
        error_bound,
        exact_solve,
        l1_distance,
    )
    from .features import load_features
    from .graph import build_graph, normalize, read_edge_tsv

    edges = read_edge_tsv(os.path.join(args.prep_dir, "edges.tsv"))
    x = load_features(os.path.join(args.prep_dir, "features.sgdf"))
    n = x.shape[0]
    graph = build_graph(edges, n)
    na = normalize(graph)

    cfg = DiffusionConfig(c=args.c, k_steps=args.k, m0_mode=args.m0)
    rng = np.random.default_rng(args.seed)

    with_exact = 2 * n <= 4096
    t_star = exact_solve(na, x, args.c) if with_exact else None

    rows = []
    prev = None
    t0 = None
    for k, state in enumerate(diffusion_steps(na, x, cfg, rng=rng)):
        if k == 0:
            t0 = state
        residual = "" if prev is None else f"{l1_distance(state, prev):.10g}"
        if with_exact:
            err = l1_distance(state, t_star)
            bound = error_bound(t0, t_star, args.c, k)
            rows.append(f"{k},{residual},{err:.10g},{bound:.10g}")
        else:
            rows.append(f"{k},{residual}")
        prev = state

    out_path = args.out or os.path.join(args.prep_dir, "diffusion.csv")
    header = "step,residual,error,bound" if with_exact else "step,residual"
    with atomic_write(out_path) as fh:
        fh.write(header + "\n")
        fh.write("\n".join(rows) + "\n")
    print(f"diffusion trace ({args.k} steps): {out_path}")
    return 0


def cmd_experiment(args) -> int:
    from .evaluation import ExperimentConfig, ExperimentResult, run_seed
    from .graph import load_edge_list

    fmt_default, layers_default, c_default = DATASETS[args.dataset]
    fmt = args.format or fmt_default
    config = ExperimentConfig(
        svd_rank=args.svd_rank,
        dim=args.dim,
        n_layers=args.layers if args.layers is not None else layers_default,
        c=args.c if args.c is not None else c_default,
        k_steps=args.k,
        lr=args.lr,
        weight_decay=args.weight_decay,
        epochs=args.epochs,
        ratio=args.ratio,
        m0_mode=args.m0,
    )

    edges, n, _ = load_edge_list(args.input, fmt)
    print(
        f"{args.dataset}: {n} nodes, {len(edges)} edges; "
        f"layers={config.n_layers} c={config.c} k={config.k_steps} seeds={args.seeds}"
    )

    result = ExperimentResult()
    for seed in range(args.seeds):
        outcome = run_seed(edges, n, config, seed)
        result.rows.append(outcome)
        print(f"seed {seed}: auc {outcome.auc:.4f}  f1_macro {outcome.f1_macro:.4f}")

    auc_mean, auc_std = result.auc_mean_std
    f1_mean, f1_std = result.f1_mean_std

    os.makedirs(args.out_dir, exist_ok=True)
    out_path = os.path.join(args.out_dir, "runs.csv")
    with atomic_write(out_path) as fh:
        fh.write("dataset,seed,auc,f1_macro\n")
        for row in result.rows:
            fh.write(f"{args.dataset},{row.seed},{row.auc:.10g},{row.f1_macro:.10g}\n")
        fh.write(
            f"{args.dataset},summary,{auc_mean:.4f}+/-{auc_std:.4f},"
            f"{f1_mean:.4f}+/-{f1_std:.4f}\n"
        )

    print(f"{'dataset':<16}{'AUC':<20}{'F1-macro':<20}")
    print(
        f"{args.dataset:<16}"
        f"{auc_mean:.3f} +/- {auc_std:.3f}     "
        f"{f1_mean:.3f} +/- {f1_std:.3f}"
    )
    print(f"report: {out_path}")
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    _apply_thread_limit(argv)
    parser = build_parser()

    # Pull config-file values in as defaults so explicit flags still win.
    try:
        pre, _ = parser.parse_known_args(argv)
    except SystemExit:
        raise
    config_path = getattr(pre, "config", None)
    if config_path:
        try:
            values = _read_config_file(config_path)
        except OSError as exc:
            print(f"error: cannot read config file: {exc}", file=sys.stderr)
            return 2
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        sub_parser = _subparser_for(parser, pre.command)
        valid = {action.dest for action in sub_parser._actions}
        unknown = set(values) - valid
        if unknown:
            print(
                f"error: unknown config keys: {', '.join(sorted(unknown))}",
                file=sys.stderr,
            )
            return 2
        sub_parser.set_defaults(**values)

    args = parser.parse_args(argv)

    # Config-file-sourced thread limits land here; numpy is not imported yet.
    if getattr(args, "threads", None) is not None:
        for var in _THREAD_ENV_VARS:
            os.environ[var] = str(args.threads)

    from .graph import DataError
    from .model import NumericError

    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (DataError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _subparser_for(parser, command):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices[command]
    raise RuntimeError("subparsers not configured")


if __name__ == "__main__":
    sys.exit(main())
