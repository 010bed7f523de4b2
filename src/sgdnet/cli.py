"""Command-line surface: preprocessing, training, evaluation, diffusion
inspection, and multi-seed experiments with persisted artifacts.

Exit codes: 0 success, 2 usage/config/data or file-system error, 3 numeric
failure.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from itertools import chain

from .atomic import write_lines

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


def _read_config_file(path) -> dict[str, str]:
    """Flat key=value file of long flag names without their '--' ('_' reads
    as '-'); '#' comments, blank lines and a leading UTF-8 BOM are skipped."""
    values = {}
    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if re.search("[\udc80-\udcff]", raw):  # as `graph._UNDECODABLE`
                raise ValueError(f"{path}:{lineno}: not valid UTF-8")
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            values[key.strip().replace("_", "-")] = value.strip()
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
    sub.add_argument("--config", help="key=value file supplying any optional flag; flags override")
    sub.add_argument(
        "--threads", type=_positive_int, help="BLAS thread count; 1 is bitwise deterministic"
    )


def _add_model(sub):
    """The model and training flags of `train` and `experiment`; one left out
    takes its config dataclass default, or in `experiment` the dataset's."""
    sub.add_argument("--layers", type=_positive_int)
    sub.add_argument("--c", type=float, help="local injection ratio in (0,1)")
    sub.add_argument("--k", type=_positive_int, help="diffusion steps")
    sub.add_argument("--dim", type=_positive_int)
    sub.add_argument("--lr", type=float)
    sub.add_argument("--weight-decay", type=float)
    sub.add_argument("--epochs", type=_non_negative_int)
    sub.add_argument("--m0", choices=["uniform", "zero"])


def _model_settings(args, **extra) -> dict:
    """The `_add_model` flags, and `extra`, that were given, as config fields."""
    values = dict(dim=args.dim, n_layers=args.layers, c=args.c, k_steps=args.k, lr=args.lr,
                  weight_decay=args.weight_decay, epochs=args.epochs, m0_mode=args.m0, **extra)
    return {name: value for name, value in values.items() if value is not None}


def _read_inputs(directory, prefix=""):
    """(edges, features) from `<prefix>edges.tsv` and `<prefix>features.sgdf`
    in `directory`; the node count n is the features' row count."""
    from .features import load_features
    from .graph import read_edge_tsv

    edges = read_edge_tsv(os.path.join(directory, f"{prefix}edges.tsv"))
    return edges, load_features(os.path.join(directory, f"{prefix}features.sgdf"))


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
    p.add_argument("--seed", type=_non_negative_int, default=0)
    _add_common(p)
    p.set_defaults(func=cmd_prep)

    p = subs.add_parser("train", help="train a model on prepped artifacts")
    p.add_argument("--prep-dir", required=True)
    p.add_argument("--out-dir", help="defaults to --prep-dir")
    _add_model(p)
    p.add_argument("--seed", type=_non_negative_int, default=0)
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
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--out", help="trace CSV; default <prep-dir>/diffusion.csv")
    _add_common(p)
    p.set_defaults(func=cmd_diffuse)

    p = subs.add_parser("experiment", help="multi-seed split/train/eval protocol")
    p.add_argument("--dataset", required=True, choices=sorted(DATASETS))
    p.add_argument("--input", required=True, help="raw signed edge file")
    p.add_argument("--format", choices=["tsv-sign", "csv-rating"],
                   help="override the dataset's edge format")
    _add_model(p)
    p.add_argument("--svd-rank", type=_positive_int)
    p.add_argument("--ratio", type=float)
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
    x = init_features(g, rank, seed=args.seed)
    save_features(os.path.join(args.out_dir, "features.sgdf"), x)

    header = "n\tm\tm_plus\tm_minus\trho_plus\trho_minus"
    row = f"{n}\t{m}\t{n_pos}\t{n_neg}\t{100.0 * n_pos / m:.2f}%\t{100.0 * n_neg / m:.2f}%"
    write_lines(os.path.join(args.out_dir, "summary.txt"), [header, row])
    print(header)
    print(row)
    print(f"features: {x.shape[0]} x {x.shape[1]} (rank {rank})")
    return 0


def cmd_train(args) -> int:
    from .evaluation import _split_features
    from .features import save_features
    from .graph import build_graph, save_edge_list
    from .model import save_checkpoint
    from .seeding import run_seeds
    from .training import TrainConfig, TrainingAbort, train

    if not 0.0 <= args.split_ratio < 1.0:
        raise ValueError(f"--split-ratio must lie in [0, 1), got {args.split_ratio}")
    if args.split_ratio == 0 and args.svd_rank is not None:
        raise ValueError(
            "--svd-rank sets the rank of recomputed split features;"
            " with --split-ratio 0, train uses prep's features as they are"
        )

    cfg = TrainConfig(**_model_settings(args))

    edges, x = _read_inputs(args.prep_dir)
    # After the reads, so that a missing prep dir leaves no out-dir behind.
    out_dir = args.out_dir or args.prep_dir
    os.makedirs(out_dir, exist_ok=True)

    if args.split_ratio > 0:
        split, graph, x, cfg.seed = _split_features(
            edges, len(x), args.split_ratio, args.svd_rank or x.shape[1], args.seed
        )
        save_edge_list(os.path.join(out_dir, "test_edges.tsv"), split.test)
    else:
        graph = build_graph(edges, len(x))
        cfg.seed = run_seeds(args.seed).train

    save_edge_list(os.path.join(out_dir, "train_edges.tsv"), graph.edges)
    save_features(os.path.join(out_dir, "train_features.sgdf"), x)

    abort = None
    try:
        params, history = train(graph, x, cfg)
    except TrainingAbort as exc:
        params, history, abort = exc.params, exc.history, exc

    checkpoint_path = os.path.join(out_dir, "checkpoint.sgdn")
    save_checkpoint(checkpoint_path, params, cfg.diffusion())
    write_lines(
        os.path.join(out_dir, "loss.csv"),
        ["epoch,loss", *(f"{epoch},{loss:.10g}" for epoch, loss in enumerate(history))],
    )
    if abort is not None:
        print(f"error: {abort}", file=sys.stderr)
        print(f"last good checkpoint written to {checkpoint_path}", file=sys.stderr)
        return 3

    final = history[-1] if history else float("nan")
    print(f"trained {cfg.epochs} epochs on {graph.m} edges; final loss {final:.6f}")
    print(f"checkpoint: {checkpoint_path}")
    return 0


def cmd_eval(args) -> int:
    from .evaluation import MetricError, auc, class_metrics, f1_macro, predict_edges
    from .graph import build_graph, read_edge_tsv
    from .model import load_checkpoint

    params, dcfg = load_checkpoint(os.path.join(args.run_dir, "checkpoint.sgdn"))
    train_edges, x = _read_inputs(args.run_dir, "train_")
    graph = build_graph(train_edges, len(x))

    test = read_edge_tsv(args.test_edges)
    p_plus, preds = predict_edges(graph, x, params, dcfg, test)
    try:
        auc_text = f"{auc(p_plus, test.sign):.4f}"
    except MetricError:  # one class only
        auc_text = "NA"

    out_path = args.out or os.path.join(args.run_dir, "predictions.csv")
    rows = zip(test.src, test.dst, test.sign, p_plus, preds)
    lines = (f"{u},{v},{label},{prob:.10g},{pred}" for u, v, label, prob, pred in rows)
    write_lines(out_path, chain(["u,v,label,p_plus,pred"], lines))

    print(f"edges     {len(test)}")
    print(f"auc       {auc_text}")
    print(f"f1_macro  {f1_macro(preds, test.sign):.4f}")
    per_class = class_metrics(preds, test.sign)
    for sign, name in ((1, "positive"), (-1, "negative")):
        pc = per_class[sign]
        print(
            f"{name}  precision {pc['precision']:.4f}  recall {pc['recall']:.4f}"
            f"  f1 {pc['f1']:.4f}"
        )
    print(f"predictions: {out_path}")
    return 0


def cmd_diffuse(args) -> int:
    import numpy as np

    from .diffusion import (
        EXACT_MAX_N,
        DiffusionConfig,
        diffusion_steps,
        error_bound,
        exact_solve,
        l1_distance,
    )
    from .graph import build_graph, normalize

    cfg = DiffusionConfig(c=args.c, k_steps=args.k, m0_mode=args.m0)
    rng = np.random.default_rng(args.seed)

    edges, x = _read_inputs(args.prep_dir)
    na = normalize(build_graph(edges, len(x)))
    t_star = exact_solve(na, x, args.c) if na.n <= EXACT_MAX_N else None

    # The trace streams: T0 (for the bound) and the previous state stay alive.
    rows = ["step,residual" + ("" if t_star is None else ",error,bound")]
    steps = diffusion_steps(na, x, cfg, rng=rng)
    t0, prev = next(steps), None
    for k, state in enumerate(chain([t0], steps)):
        row = f"{k}," + ("" if prev is None else f"{l1_distance(state, prev):.10g}")
        if t_star is not None:
            err, bound = l1_distance(state, t_star), error_bound(t0, t_star, args.c, k)
            row += f",{err:.10g},{bound:.10g}"
        rows.append(row)
        prev = state

    out_path = args.out or os.path.join(args.prep_dir, "diffusion.csv")
    write_lines(out_path, rows)
    print(f"diffusion trace ({args.k} steps): {out_path}")
    return 0


def cmd_experiment(args) -> int:
    from .evaluation import ExperimentConfig, mean_std, run_seed
    from .graph import load_edge_list

    fmt, layers, c = DATASETS[args.dataset]
    given = _model_settings(args, svd_rank=args.svd_rank, ratio=args.ratio)
    config = ExperimentConfig(**{"n_layers": layers, "c": c, **given})

    edges, n, _ = load_edge_list(args.input, args.format or fmt)
    os.makedirs(args.out_dir, exist_ok=True)
    print(
        f"{args.dataset}: {n} nodes, {len(edges)} edges; "
        f"layers={config.n_layers} c={config.c} k={config.k_steps} seeds={args.seeds}"
    )

    rows = []
    for seed in range(args.seeds):
        rows.append(run_seed(edges, n, config, seed))
        print(f"seed {seed}: auc {rows[-1].auc:.4f}  f1_macro {rows[-1].f1_macro:.4f}")

    auc_mean, auc_std = mean_std([row.auc for row in rows])
    f1_mean, f1_std = mean_std([row.f1_macro for row in rows])

    out_path = os.path.join(args.out_dir, "runs.csv")
    write_lines(out_path, [
        "dataset,seed,auc,f1_macro",
        *(f"{args.dataset},{row.seed},{row.auc:.10g},{row.f1_macro:.10g}" for row in rows),
        f"{args.dataset},summary,{auc_mean:.4f}+/-{auc_std:.4f},{f1_mean:.4f}+/-{f1_std:.4f}",
    ])

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
    parser = build_parser()
    try:
        # Config entries become flags right after the subcommand, so argparse
        # checks them like flags and explicit flags, parsed later, still win.
        # The first pass finds --config; it also keeps required flags on the
        # command line.
        pre, _ = parser.parse_known_args(argv)
        if pre.config:
            at = argv.index(pre.command) + 1
            argv[at:at] = [f"--{k}={v}" for k, v in _read_config_file(pre.config).items()]
        args = parser.parse_args(argv)

        # Pin BLAS thread pools, from the flag or the config file, before
        # numpy is imported; --threads 1 gives bitwise-reproducible runs.
        if args.threads is not None:
            for var in _THREAD_ENV_VARS:
                os.environ[var] = str(args.threads)

        from .model import NumericError

        try:
            return args.func(args)
        except NumericError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
    except (OSError, ValueError) as exc:  # DataError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
