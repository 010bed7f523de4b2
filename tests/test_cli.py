import csv
import os

import numpy as np
import pytest

from sgdnet.cli import main
from sgdnet.graph import save_edge_list
from sgdnet.synthetic import planted_partition_graph


def run_cli(*args):
    try:
        return main(list(args))
    except SystemExit as exc:  # argparse usage errors
        return exc.code


@pytest.fixture()
def dataset(tmp_path):
    g = planted_partition_graph(n=40, avg_out_degree=8.0, seed=0)
    path = tmp_path / "toy.tsv"
    save_edge_list(path, g.edges)
    return str(path)


@pytest.fixture()
def prep_dir(tmp_path, dataset):
    out = str(tmp_path / "prep")
    code = run_cli(
        "prep", "--input", dataset, "--format", "tsv-sign",
        "--out-dir", out, "--svd-rank", "16",
    )
    assert code == 0
    return out


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------- prep


def test_prep_writes_artifacts(prep_dir):
    for name in ("edges.tsv", "idmap.tsv", "features.sgdf", "summary.txt"):
        assert os.path.exists(os.path.join(prep_dir, name))
    summary = open(os.path.join(prep_dir, "summary.txt")).read().splitlines()
    header = summary[0].split("\t")
    row = summary[1].split("\t")
    assert header == ["n", "m", "m_plus", "m_minus", "rho_plus", "rho_minus"]
    assert row[0] == "40"
    assert row[4].endswith("%")


def test_prep_bad_line_after_comments_exits_2(tmp_path, capsys):
    raw = tmp_path / "raw.tsv"
    raw.write_text("# Nodes: 3\n\n0\t1\t1\n1\t2\n")
    code = run_cli("prep", "--input", str(raw), "--out-dir", str(tmp_path / "o"))
    assert code == 2
    assert "line 4: expected 3 tab-separated fields" in capsys.readouterr().err


def test_prep_missing_file_exits_2(tmp_path):
    code = run_cli(
        "prep", "--input", str(tmp_path / "nope.tsv"), "--out-dir", str(tmp_path / "o")
    )
    assert code == 2


def test_prep_feature_file_shape(prep_dir):
    from sgdnet.features import load_features

    x = load_features(os.path.join(prep_dir, "features.sgdf"))
    assert x.shape == (40, 16)


def test_prep_deterministic(tmp_path, dataset):
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    for out in (out_a, out_b):
        assert run_cli("prep", "--input", dataset, "--out-dir", out,
                       "--svd-rank", "8", "--seed", "5") == 0
    bytes_a = open(os.path.join(out_a, "features.sgdf"), "rb").read()
    bytes_b = open(os.path.join(out_b, "features.sgdf"), "rb").read()
    assert bytes_a == bytes_b


# ---------------------------------------------------------------- train


def test_train_and_eval_roundtrip(tmp_path, prep_dir):
    run_dir = str(tmp_path / "run")
    code = run_cli(
        "train", "--prep-dir", prep_dir, "--out-dir", run_dir,
        "--layers", "1", "--c", "0.35", "--k", "5", "--dim", "8",
        "--epochs", "40", "--seed", "0", "--split-ratio", "0.2",
    )
    assert code == 0
    for name in ("checkpoint.sgdn", "loss.csv", "train_edges.tsv",
                 "test_edges.tsv", "train_features.sgdf"):
        assert os.path.exists(os.path.join(run_dir, name))

    loss_rows = read_csv(os.path.join(run_dir, "loss.csv"))
    assert len(loss_rows) == 40
    assert float(loss_rows[-1]["loss"]) < float(loss_rows[0]["loss"])

    code = run_cli(
        "eval", "--run-dir", run_dir,
        "--test-edges", os.path.join(run_dir, "test_edges.tsv"),
    )
    assert code == 0
    preds = read_csv(os.path.join(run_dir, "predictions.csv"))
    assert set(preds[0]) == {"u", "v", "label", "p_plus", "pred"}
    assert all(0.0 <= float(r["p_plus"]) <= 1.0 for r in preds)


def test_train_invalid_c_exits_2(prep_dir):
    assert run_cli("train", "--prep-dir", prep_dir, "--c", "1.5", "--epochs", "1") == 2


def test_train_numeric_blowup_exits_3(tmp_path, prep_dir, capsys):
    run_dir = str(tmp_path / "blowup")
    with np.errstate(over="ignore", invalid="ignore"):
        code = run_cli(
            "train", "--prep-dir", prep_dir, "--out-dir", run_dir,
            "--dim", "4", "--k", "2", "--epochs", "5", "--lr", "1e160",
        )
    assert code == 3
    assert "last good checkpoint" in capsys.readouterr().err
    assert os.path.exists(os.path.join(run_dir, "checkpoint.sgdn"))


def test_train_zero_epochs_equals_init(tmp_path, prep_dir):
    from sgdnet.model import init_params, load_checkpoint
    from sgdnet.seeding import spawn_seeds

    run_dir = str(tmp_path / "run0")
    code = run_cli(
        "train", "--prep-dir", prep_dir, "--out-dir", run_dir,
        "--dim", "8", "--epochs", "0", "--seed", "3", "--split-ratio", "0",
    )
    assert code == 0
    params, _ = load_checkpoint(os.path.join(run_dir, "checkpoint.sgdn"))
    _, _, train_seed = spawn_seeds(3, 3)
    init_seed, _ = spawn_seeds(train_seed, 2)
    reference = init_params(16, 8, 1, seed=init_seed)
    for (_, wa), (_, wb) in zip(params.named(), reference.named()):
        assert np.array_equal(wa, wb)


def test_train_reproducible(tmp_path, prep_dir):
    runs = []
    for name in ("r1", "r2"):
        run_dir = str(tmp_path / name)
        assert run_cli(
            "train", "--prep-dir", prep_dir, "--out-dir", run_dir,
            "--dim", "8", "--epochs", "5", "--seed", "9", "--k", "3",
        ) == 0
        runs.append(open(os.path.join(run_dir, "checkpoint.sgdn"), "rb").read())
    assert runs[0] == runs[1]


def test_train_eval_matches_library_protocol(tmp_path, prep_dir, capsys):
    # The CLI pipeline and run_seed must produce identical metrics for the
    # same seed and settings: same split, features, training, and scoring.
    from sgdnet.evaluation import ExperimentConfig, run_seed
    from sgdnet.graph import read_edge_tsv

    run_dir = str(tmp_path / "proto")
    assert run_cli(
        "train", "--prep-dir", prep_dir, "--out-dir", run_dir,
        "--layers", "1", "--c", "0.35", "--k", "4", "--dim", "8",
        "--epochs", "25", "--seed", "3", "--split-ratio", "0.2",
        "--svd-rank", "16",
    ) == 0
    assert run_cli(
        "eval", "--run-dir", run_dir,
        "--test-edges", os.path.join(run_dir, "test_edges.tsv"),
    ) == 0
    out = capsys.readouterr().out
    cli_auc = float(out.split("auc")[1].split()[0])
    cli_f1 = float(out.split("f1_macro")[1].split()[0])

    edges = read_edge_tsv(os.path.join(prep_dir, "edges.tsv"))
    config = ExperimentConfig(
        svd_rank=16, dim=8, n_layers=1, c=0.35, k_steps=4,
        lr=0.01, weight_decay=1e-3, epochs=25, ratio=0.2,
    )
    row = run_seed(edges, 40, config, seed=3)
    assert abs(row.auc - cli_auc) < 5e-5
    assert abs(row.f1_macro - cli_f1) < 5e-5


# ---------------------------------------------------------------- eval


def test_eval_empty_test_file_exits_2(tmp_path, prep_dir):
    run_dir = str(tmp_path / "run")
    assert run_cli("train", "--prep-dir", prep_dir, "--out-dir", run_dir,
                   "--dim", "8", "--epochs", "2", "--k", "2") == 0
    empty = tmp_path / "empty.tsv"
    empty.write_text("")
    assert run_cli("eval", "--run-dir", run_dir, "--test-edges", str(empty)) == 2


def test_eval_single_class_reports_na(tmp_path, prep_dir, capsys):
    run_dir = str(tmp_path / "run")
    assert run_cli("train", "--prep-dir", prep_dir, "--out-dir", run_dir,
                   "--dim", "8", "--epochs", "2", "--k", "2") == 0
    single = tmp_path / "single.tsv"
    single.write_text("0\t1\t1\n2\t3\t1\n")
    assert run_cli("eval", "--run-dir", run_dir, "--test-edges", str(single)) == 0
    out = capsys.readouterr().out
    assert "auc       NA" in out
    assert "f1_macro" in out


# ---------------------------------------------------------------- diffuse


def test_diffuse_trace_bounds(tmp_path, prep_dir):
    out = str(tmp_path / "trace.csv")
    code = run_cli("diffuse", "--prep-dir", prep_dir, "--c", "0.5", "--k", "10",
                   "--out", out)
    assert code == 0
    rows = read_csv(out)
    assert len(rows) == 11  # steps 0..10
    assert rows[0]["residual"] == ""
    for row in rows:
        assert float(row["error"]) <= float(row["bound"]) + 1e-12


def test_diffuse_k1_two_rows(tmp_path, prep_dir):
    out = str(tmp_path / "trace.csv")
    assert run_cli("diffuse", "--prep-dir", prep_dir, "--k", "1", "--out", out) == 0
    assert len(read_csv(out)) == 2


def test_diffuse_high_c_converges_fast(tmp_path, prep_dir):
    out = str(tmp_path / "trace.csv")
    assert run_cli("diffuse", "--prep-dir", prep_dir, "--c", "0.95", "--k", "8",
                   "--out", out) == 0
    rows = read_csv(out)
    assert float(rows[-1]["error"]) < 1e-10 * max(1.0, float(rows[0]["error"]))


# ---------------------------------------------------------------- experiment


def test_experiment_smoke(tmp_path, dataset, capsys):
    out_dir = str(tmp_path / "exp")
    code = run_cli(
        "experiment", "--dataset", "generic-tsv", "--input", dataset,
        "--seeds", "2", "--epochs", "10", "--svd-rank", "8", "--dim", "8",
        "--k", "3", "--out-dir", out_dir,
    )
    assert code == 0
    rows = read_csv(os.path.join(out_dir, "runs.csv"))
    assert len(rows) == 3  # 2 seeds + summary
    assert rows[-1]["seed"] == "summary"
    out = capsys.readouterr().out
    assert "AUC" in out and "F1-macro" in out


def test_experiment_unknown_dataset_exits_2(dataset):
    assert run_cli("experiment", "--dataset", "mystery", "--input", dataset) == 2


# ---------------------------------------------------------------- config file


def test_config_file_supplies_defaults(tmp_path, dataset):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("svd-rank=8\nseed=5\n")
    out = str(tmp_path / "prepcfg")
    assert run_cli("prep", "--input", dataset, "--out-dir", out,
                   "--config", str(cfg)) == 0
    from sgdnet.features import load_features

    assert load_features(os.path.join(out, "features.sgdf")).shape == (40, 8)


def test_config_file_flag_overrides(tmp_path, dataset):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("svd-rank=8\n")
    out = str(tmp_path / "prepcfg2")
    assert run_cli("prep", "--input", dataset, "--out-dir", out,
                   "--config", str(cfg), "--svd-rank", "4") == 0
    from sgdnet.features import load_features

    assert load_features(os.path.join(out, "features.sgdf")).shape == (40, 4)


def test_config_file_unknown_key_exits_2(tmp_path, dataset):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mystery-flag=1\n")
    assert run_cli("prep", "--input", dataset, "--out-dir", "x",
                   "--config", str(cfg)) == 2


# ---------------------------------------------------------------- process


def test_console_process_with_thread_pin(tmp_path, dataset):
    import subprocess
    import sys

    out = str(tmp_path / "proc")
    proc = subprocess.run(
        [sys.executable, "-m", "sgdnet.cli", "prep", "--input", dataset,
         "--out-dir", out, "--svd-rank", "8", "--threads", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert os.path.exists(os.path.join(out, "features.sgdf"))


def test_console_process_exit_code_on_bad_input(tmp_path):
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "sgdnet.cli", "prep", "--input",
         str(tmp_path / "missing.tsv"), "--out-dir", str(tmp_path / "o")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert "error" in proc.stderr.lower()
