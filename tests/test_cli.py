import csv
import os
import struct
from pathlib import Path

import numpy as np
import pytest

import sgdnet.diffusion
import sgdnet.evaluation
from sgdnet.cli import _THREAD_ENV_VARS, _read_config_file, main
from sgdnet.graph import save_edge_list

from synthetic import planted_partition_graph


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


def test_prep_non_finite_rating_exits_2(tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    raw.write_text("1,2,5\n2,3,nan\n3,1,-2\n")
    out = tmp_path / "o"
    code = run_cli("prep", "--input", str(raw), "--format", "csv-rating", "--out-dir", str(out))
    assert code == 2
    assert "line 2: rating 'nan' is not a finite number" in capsys.readouterr().err
    assert not (out / "features.sgdf").exists()


def test_prep_missing_file_exits_2(tmp_path):
    code = run_cli(
        "prep", "--input", str(tmp_path / "nope.tsv"), "--out-dir", str(tmp_path / "o")
    )
    assert code == 2


def test_prep_input_directory_exits_2(tmp_path, capsys):
    code = run_cli("prep", "--input", str(tmp_path), "--out-dir", str(tmp_path / "o"))
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_prep_out_dir_that_is_a_file_exits_2(tmp_path, dataset, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    code = run_cli("prep", "--input", dataset, "--out-dir", str(taken), "--svd-rank", "4")
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_prep_feature_file_shape(prep_dir):
    from sgdnet.features import load_features

    x = load_features(os.path.join(prep_dir, "features.sgdf"))
    assert x.shape == (40, 16)


# A second prep of the same file, and preps of copies that start with a
# UTF-8 byte-order mark or end their lines in CRLF, write the same bytes.
def test_prep_deterministic(tmp_path, dataset):
    def prep(path, out):
        return run_cli("prep", "--input", str(path), "--out-dir", str(out),
                       "--svd-rank", "8", "--seed", "5")

    raw = Path(dataset).read_bytes()
    assert b"\r" not in raw
    assert prep(dataset, tmp_path / "first") == 0
    copies = {"plain": raw, "bom": b"\xef\xbb\xbf" + raw, "crlf": raw.replace(b"\n", b"\r\n")}
    for name, text in copies.items():
        (tmp_path / f"{name}.tsv").write_bytes(text)
        assert prep(tmp_path / f"{name}.tsv", tmp_path / name) == 0
        for artifact in ("edges.tsv", "idmap.tsv", "features.sgdf", "summary.txt"):
            expected = (tmp_path / "first" / artifact).read_bytes()
            assert (tmp_path / name / artifact).read_bytes() == expected, (name, artifact)


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
    # The split neither drops nor repeats a prepared edge.
    split_rows = [row for name in ("train_edges.tsv", "test_edges.tsv")
                  for row in Path(run_dir, name).read_bytes().splitlines()]
    assert sorted(split_rows) == sorted(Path(prep_dir, "edges.tsv").read_bytes().splitlines())

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


@pytest.mark.parametrize("ratio", ["1", "-0.5"])
def test_train_split_ratio_outside_its_range_exits_2(tmp_path, prep_dir, capsys, ratio):
    run_dir = tmp_path / "run"
    code = run_cli("train", "--prep-dir", prep_dir, "--out-dir", str(run_dir),
                   "--split-ratio", ratio)
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: --split-ratio must lie in [0, 1), got {float(ratio)}\n"
    assert not run_dir.exists()


@pytest.mark.parametrize("flag, value", [("--lr", "nan"), ("--weight-decay", "inf")])
def test_train_non_finite_rate_exits_2(tmp_path, prep_dir, capsys, flag, value):
    run_dir = tmp_path / "run"
    code = run_cli("train", "--prep-dir", prep_dir, "--out-dir", str(run_dir),
                   "--dim", "4", "--epochs", "2", flag, value)
    assert code == 2
    assert "must be finite" in capsys.readouterr().err
    assert not run_dir.exists()


def test_train_split_with_no_test_edge_exits_2(tmp_path, prep_dir, capsys):
    run_dir = tmp_path / "run"
    code = run_cli("train", "--prep-dir", prep_dir, "--out-dir", str(run_dir),
                   "--dim", "8", "--epochs", "2", "--split-ratio", "0.001")
    assert code == 2
    assert "split ratio 0.001 leaves no test edge" in capsys.readouterr().err
    assert not (run_dir / "test_edges.tsv").exists()


@pytest.mark.parametrize("rank", ["3", "16"])
def test_train_svd_rank_without_a_split_exits_2(tmp_path, prep_dir, capsys, rank):
    run_dir = tmp_path / "r0"
    code = run_cli("train", "--prep-dir", prep_dir, "--out-dir", str(run_dir),
                   "--dim", "4", "--epochs", "1", "--split-ratio", "0", "--svd-rank", rank)
    assert code == 2
    err = capsys.readouterr().err
    assert "--svd-rank" in err and "--split-ratio 0" in err
    assert not run_dir.exists()


@pytest.mark.parametrize("named_out_dir", [False, True])
def test_train_missing_prep_dir_exits_2_and_creates_no_dir(tmp_path, capsys, named_out_dir):
    # The out-dir defaults to the prep dir; neither may be created by a run
    # that cannot read its inputs.
    prep, run_dir = tmp_path / "nowhere", tmp_path / "newrun"
    out_args = ["--out-dir", str(run_dir)] if named_out_dir else []
    code = run_cli("train", "--prep-dir", str(prep), *out_args, "--dim", "4", "--epochs", "1")
    assert code == 2
    assert "edges.tsv" in capsys.readouterr().err
    assert not prep.exists() and not run_dir.exists()


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


def test_train_without_model_flags_takes_the_train_config_defaults(tmp_path, prep_dir, capsys):
    from sgdnet.model import load_checkpoint

    run_dir = tmp_path / "defaults"
    assert run_cli("train", "--prep-dir", prep_dir, "--out-dir", str(run_dir),
                   "--epochs", "0") == 0
    assert "trained 0 epochs" in capsys.readouterr().out
    params, dcfg = load_checkpoint(run_dir / "checkpoint.sgdn")
    _, dim, n_layers = params.dims
    assert (n_layers, dim, dcfg.c, dcfg.k_steps) == (1, 32, 0.35, 10)


@pytest.mark.parametrize("command, args, out_flag", [
    ("prep", ["--input", "{dataset}"], "--out-dir"),
    ("train", ["--prep-dir", "{prep_dir}"], "--out-dir"),
    ("diffuse", ["--prep-dir", "{prep_dir}", "--m0", "uniform"], "--out"),
])
def test_negative_seed_exits_2_before_writing(tmp_path, dataset, prep_dir, capsys,
                                              command, args, out_flag):
    out = tmp_path / "neg"
    args = [a.format(dataset=dataset, prep_dir=prep_dir) for a in args]
    assert run_cli(command, *args, out_flag, str(out), "--seed", "-1") == 2
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("command, artifact, keep", [
    ("train", "features.sgdf", 6),
    ("eval", "checkpoint.sgdn", 10),
])
def test_truncated_header_exits_2(tmp_path, prep_dir, capsys, command, artifact, keep):
    run_dir = str(tmp_path / "run")
    assert run_cli("train", "--prep-dir", prep_dir, "--out-dir", run_dir,
                   "--dim", "4", "--epochs", "1", "--k", "2") == 0
    path = os.path.join(prep_dir if command == "train" else run_dir, artifact)
    with open(path, "r+b") as fh:
        fh.truncate(keep)
    args = {
        "train": ("train", "--prep-dir", prep_dir, "--out-dir", run_dir),
        "eval": ("eval", "--run-dir", run_dir,
                 "--test-edges", os.path.join(run_dir, "test_edges.tsv")),
    }[command]
    assert run_cli(*args) == 2
    assert "truncated" in capsys.readouterr().err


# The shape fields at byte 8 claim 2^65 bytes: (n, d) of the features,
# (d0, d) of the checkpoint.
@pytest.mark.parametrize("command, artifact, fields", [
    ("train", "features.sgdf", "<QQ"),
    ("eval", "checkpoint.sgdn", "<II"),
])
def test_huge_claimed_payload_exits_2(tmp_path, prep_dir, capsys, command, artifact, fields):
    run_dir = str(tmp_path / "run")
    assert run_cli("train", "--prep-dir", prep_dir, "--out-dir", run_dir,
                   "--dim", "4", "--epochs", "1", "--k", "2") == 0
    path = os.path.join(prep_dir if command == "train" else run_dir, artifact)
    with open(path, "r+b") as fh:
        fh.seek(8)
        fh.write(struct.pack(fields, 2**31, 2**31))
    args = {
        "train": ("train", "--prep-dir", prep_dir, "--out-dir", run_dir),
        "eval": ("eval", "--run-dir", run_dir,
                 "--test-edges", os.path.join(run_dir, "test_edges.tsv")),
    }[command]
    assert run_cli(*args) == 2
    assert "truncated" in capsys.readouterr().err


# A NaN in the head's last weight, the payload's last value, and an inf in
# w_in's first, right after the 32-byte header.
@pytest.mark.parametrize("where, value", [("last", float("nan")), ("first", float("inf"))])
def test_eval_non_finite_checkpoint_exits_2(tmp_path, prep_dir, capsys, where, value):
    run_dir = tmp_path / "run"
    assert run_cli("train", "--prep-dir", prep_dir, "--out-dir", str(run_dir),
                   "--dim", "4", "--epochs", "1", "--k", "2") == 0
    path = run_dir / "checkpoint.sgdn"
    raw = bytearray(path.read_bytes())
    struct.pack_into("<d", raw, len(raw) - 8 if where == "last" else 32, value)
    path.write_bytes(raw)
    capsys.readouterr()
    code = run_cli("eval", "--run-dir", str(run_dir),
                   "--test-edges", str(run_dir / "test_edges.tsv"))
    assert code == 2
    assert "checkpoint.sgdn" in capsys.readouterr().err
    assert not (run_dir / "predictions.csv").exists()


# A learning rate and weight decay so large that the one Adam step overflows:
# train aborts as on any numeric failure and keeps the parameters from before
# the step, which are those an --epochs 0 run saves.
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_train_whose_last_step_overflows_exits_3_with_the_last_good_checkpoint(
    tmp_path, prep_dir, capsys
):
    run_dir, start_dir = tmp_path / "run", tmp_path / "start"
    args = ("--prep-dir", prep_dir, "--dim", "4", "--k", "2",
            "--lr", "1e308", "--weight-decay", "1000")
    code = run_cli("train", *args, "--out-dir", str(run_dir), "--epochs", "1")
    assert code == 3
    err = capsys.readouterr().err
    assert "epoch 0" in err and "non-finite parameters" in err
    assert "last good checkpoint" in err
    assert run_cli("train", *args, "--out-dir", str(start_dir), "--epochs", "0") == 0
    ckpt = (run_dir / "checkpoint.sgdn").read_bytes()
    assert ckpt == (start_dir / "checkpoint.sgdn").read_bytes()
    rows = (run_dir / "loss.csv").read_text().splitlines()
    assert rows[0] == "epoch,loss" and len(rows) == 2 and rows[1].startswith("0,")


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
    f1_line = next(line for line in out.splitlines() if line.startswith("f1_macro"))
    assert 0.0 <= float(f1_line.split()[1]) <= 1.0


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
    # From a uniform m0 the bound holds too, and the seed alone fixes the trace.
    traces = [tmp_path / "uniform.csv", tmp_path / "uniform-again.csv"]
    for trace in traces:
        assert run_cli("diffuse", "--prep-dir", prep_dir, "--c", "0.5", "--k", "10",
                       "--m0", "uniform", "--seed", "3", "--out", str(trace)) == 0
    assert traces[0].read_bytes() == traces[1].read_bytes()
    for row in read_csv(traces[0]):
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


# The toy graph has 40 nodes: the exact columns appear at a limit of 40, not 39.
@pytest.mark.parametrize("limit, header", [
    (40, "step,residual,error,bound"),
    (39, "step,residual"),
])
def test_diffuse_exact_columns_follow_the_size_limit(tmp_path, prep_dir, monkeypatch,
                                                     limit, header):
    monkeypatch.setattr(sgdnet.diffusion, "EXACT_MAX_N", limit)
    out = str(tmp_path / "trace.csv")
    assert run_cli("diffuse", "--prep-dir", prep_dir, "--k", "3", "--out", out) == 0
    with open(out) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == header
    assert len(lines) == 5 and all(len(l.split(",")) == len(header.split(",")) for l in lines)


def test_diffuse_bad_c_exits_2_before_loading(tmp_path, capsys):
    code = run_cli("diffuse", "--prep-dir", str(tmp_path / "nowhere"), "--c", "1.5")
    assert code == 2
    assert "c must lie in (0, 1)" in capsys.readouterr().err


# ---------------------------------------------------------------- experiment


# On one usable CPU and on two, which runs the walks and the noise draws on
# worker threads, experiment writes the same runs.csv.
def test_experiment_smoke(tmp_path, dataset, capsys, monkeypatch):
    runs = {}
    for cpus in (1, 2):
        monkeypatch.setattr(sgdnet.diffusion, "_usable_cpus", lambda: cpus)
        out_dir = tmp_path / f"exp-{cpus}"
        code = run_cli(
            "experiment", "--dataset", "generic-tsv", "--input", dataset,
            "--seeds", "2", "--epochs", "10", "--svd-rank", "8", "--dim", "8",
            "--k", "3", "--out-dir", str(out_dir),
        )
        assert code == 0
        runs[cpus] = (out_dir / "runs.csv").read_bytes()
        out = capsys.readouterr().out
        assert "AUC" in out and "F1-macro" in out
    assert runs[1] == runs[2]
    rows = read_csv(tmp_path / "exp-1" / "runs.csv")
    assert len(rows) == 3  # 2 seeds + summary
    assert rows[-1]["seed"] == "summary"


def test_experiment_out_dir_that_is_a_file_exits_2_before_any_seed(
    tmp_path, dataset, capsys, monkeypatch
):
    def no_seed_may_run(*args):
        raise AssertionError("a seed ran before the out-dir was checked")

    monkeypatch.setattr(sgdnet.evaluation, "run_seed", no_seed_may_run)
    taken = tmp_path / "taken"
    taken.write_text("")
    code = run_cli(
        "experiment", "--dataset", "generic-tsv", "--input", dataset,
        "--seeds", "2", "--epochs", "1", "--svd-rank", "8", "--out-dir", str(taken),
    )
    assert code == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert not [line for line in captured.out.splitlines() if line.startswith("seed")]


def test_experiment_prints_each_seed_before_the_next_seed_runs(
    tmp_path, dataset, capsys, monkeypatch
):
    printed = []  # per run_seed call: the seed lines printed since the last call

    def counted_run_seed(edges, n, config, seed):
        out = capsys.readouterr().out
        printed.append([line for line in out.splitlines() if line.startswith("seed")])
        return sgdnet.evaluation.SeedResult(seed=seed, auc=0.5, f1_macro=0.5)

    monkeypatch.setattr(sgdnet.evaluation, "run_seed", counted_run_seed)
    code = run_cli(
        "experiment", "--dataset", "generic-tsv", "--input", dataset,
        "--seeds", "3", "--out-dir", str(tmp_path / "exp"),
    )
    assert code == 0
    assert printed == [[], ["seed 0: auc 0.5000  f1_macro 0.5000"],
                       ["seed 1: auc 0.5000  f1_macro 0.5000"]]


@pytest.mark.parametrize("flags, expected", [
    ([], "layers=2 c=0.25"),
    (["--c", "0.4"], "layers=2 c=0.4"),
])
def test_experiment_flags_beat_the_dataset_row(tmp_path, dataset, capsys, flags, expected):
    code = run_cli(
        "experiment", "--dataset", "bitcoin-otc", "--format", "tsv-sign", "--input", dataset,
        "--seeds", "1", "--epochs", "1", "--svd-rank", "8", "--out-dir", str(tmp_path), *flags,
    )
    assert code == 0
    assert expected in capsys.readouterr().out


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


@pytest.mark.parametrize("text", ["# run\nsvd-rank=8\nseed=5\n", "svd-rank=8\nseed=5\n"],
                         ids=["comment-first", "key-first"])
def test_config_file_with_a_byte_order_mark_reads_like_one_without(tmp_path, dataset, text):
    plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
    plain.write_text(text)
    marked.write_bytes(("\ufeff" + text).encode("utf-8"))
    assert _read_config_file(marked) == _read_config_file(plain) == {"svd-rank": "8", "seed": "5"}
    out = str(tmp_path / "prep-bom")
    assert run_cli("prep", "--input", dataset, "--out-dir", out, "--config", str(marked)) == 0
    from sgdnet.features import load_features

    assert load_features(os.path.join(out, "features.sgdf")).shape == (40, 8)


def test_config_file_unknown_key_exits_2(tmp_path, dataset):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mystery-flag=1\n")
    assert run_cli("prep", "--input", dataset, "--out-dir", "x",
                   "--config", str(cfg)) == 2


def test_config_file_missing_exits_2(tmp_path, dataset, capsys):
    cfg = tmp_path / "absent.cfg"
    assert run_cli("prep", "--input", dataset, "--out-dir", str(tmp_path / "o"),
                   "--config", str(cfg)) == 2
    assert str(cfg) in capsys.readouterr().err


@pytest.mark.parametrize("bad_line, message", [
    (b"svd-rank 8", "expected key=value"),
    (b"\xffsvd-rank=8", "not valid UTF-8"),
], ids=["no-equals", "not-utf-8"])
def test_config_file_bad_line_exits_2_and_names_it(tmp_path, dataset, capsys, bad_line, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"# comment\nseed=1\n" + bad_line + b"\n")
    out = tmp_path / "o"
    assert run_cli("prep", "--input", dataset, "--out-dir", str(out),
                   "--config", str(cfg)) == 2
    assert f"{cfg}:3: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_config_file_bad_choice_exits_2_before_writing(tmp_path, prep_dir, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("m0=gaussian\n")
    run_dir = tmp_path / "run"
    assert run_cli("train", "--prep-dir", prep_dir, "--out-dir", str(run_dir),
                   "--config", str(cfg)) == 2
    assert "gaussian" in capsys.readouterr().err
    assert not run_dir.exists()


# A config file trains as the same flags do, and leaving a model flag out
# trains as spelling it at its default does.
def test_config_driven_train_matches_flags(tmp_path, prep_dir):
    settings = {"dim": "8", "epochs": "3", "k": "3", "weight_decay": "0.01", "seed": "4"}
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{key}={value}\n" for key, value in settings.items()))
    flags = [token for key, value in settings.items()
             for token in (f"--{key.replace('_', '-')}", value)]
    defaults = ["--layers", "1", "--c", "0.35", "--k", "10", "--dim", "32", "--lr", "0.01",
                "--weight-decay", "0.001", "--m0", "uniform"]
    runs = {"flags": flags, "config": ["--config", str(cfg)],
            "bare": ["--epochs", "3"], "defaults": ["--epochs", "3", *defaults]}
    for name, extra in runs.items():
        assert run_cli("train", "--prep-dir", prep_dir,
                       "--out-dir", str(tmp_path / name), *extra) == 0
    for artifact in ("checkpoint.sgdn", "loss.csv"):
        flag_run = (tmp_path / "flags" / artifact).read_bytes()
        assert (tmp_path / "config" / artifact).read_bytes() == flag_run
        bare_run = (tmp_path / "bare" / artifact).read_bytes()
        assert (tmp_path / "defaults" / artifact).read_bytes() == bare_run


@pytest.mark.parametrize("threads", ["0", "-2"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_threads_must_be_positive(tmp_path, monkeypatch, capsys, source, threads):
    # argparse rejects the value before a command runs, so no thread starts.
    import sgdnet.cli

    ran = []
    monkeypatch.setattr(sgdnet.cli, "cmd_eval", ran.append)
    for var in _THREAD_ENV_VARS:
        monkeypatch.setenv(var, "1")
    args = ["eval", "--run-dir", "r", "--test-edges", "t"]
    if source == "flag":
        args += ["--threads", threads]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"threads={threads}\n")
        args += ["--config", str(cfg)]
    assert run_cli(*args) == 2
    assert "expected a positive integer" in capsys.readouterr().err
    assert not ran
    assert all(os.environ[var] == "1" for var in _THREAD_ENV_VARS)


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


# In a fresh interpreter: pin the process to the CPU named by the first
# argument (unless it is empty) before sgdnet is imported, then run `main` on
# each JSON argument list that follows, stopping at the first failure.
_PINNED_RUNS = r"""
import json, os, sys

if sys.argv[1]:
    os.sched_setaffinity(0, {int(sys.argv[1])})
from sgdnet.cli import main

for args in sys.argv[2:]:
    if main(json.loads(args)):
        sys.exit(f"failed: {args}")
"""


# With two or more usable CPUs the diffusion and the noise draws use worker
# threads; pinned to one CPU they run inline. Layer 1 runs from precomputed
# inputs here, and at --layers 2 layer 2 runs the adjoint in a full and a
# partial column block. Every run writes the same bytes either way.
@pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs an affinity API and two usable CPUs")
def test_runs_pinned_to_one_cpu_write_the_bytes_of_unpinned_runs(tmp_path, prep_dir):
    import json
    import subprocess
    import sys

    cpu = min(os.sched_getaffinity(0))
    for side, pin in (("unpinned", ""), ("pinned", str(cpu))):
        l1, l2 = tmp_path / side / "l1", tmp_path / side / "l2"
        commands = [
            ["train", "--prep-dir", prep_dir, "--out-dir", str(l1), "--dim", "8",
             "--epochs", "2", "--threads", "1"],
            ["eval", "--run-dir", str(l1), "--test-edges", str(l1 / "test_edges.tsv")],
            ["train", "--prep-dir", prep_dir, "--out-dir", str(l2), "--layers", "2",
             "--dim", "12", "--epochs", "2", "--threads", "1"],
        ]
        proc = subprocess.run([sys.executable, "-c", _PINNED_RUNS, pin,
                               *map(json.dumps, commands)], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
    compared = ["l1/checkpoint.sgdn", "l1/loss.csv", "l1/predictions.csv",
                "l2/checkpoint.sgdn", "l2/loss.csv"]
    differ = [name for name in compared if (tmp_path / "unpinned" / name).read_bytes()
              != (tmp_path / "pinned" / name).read_bytes()]
    assert differ == []


# In a fresh interpreter: run `main` on the arguments after the script name,
# with `cmd_eval` replaced by a probe. Prints, as JSON, whether parsing
# imported numpy, the thread variables at numpy's first import, and the
# thread variables when the command ran.
_THREAD_PROBE = r"""
import importlib.abc, json, os, sys

seen = {}


def thread_vars():
    return {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")}


class WatchNumpy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and "at_numpy_import" not in seen:
            seen["at_numpy_import"] = thread_vars()
        return None


sys.meta_path.insert(0, WatchNumpy())
from sgdnet import cli

cli.build_parser().parse_args(sys.argv[1:])
seen["numpy_after_parse"] = "numpy" in sys.modules


def probe(args):
    seen["at_command"] = thread_vars()
    return 0


cli.cmd_eval = probe
seen["code"] = cli.main(sys.argv[1:])
print(json.dumps(seen))
"""


def test_importing_the_package_loads_no_submodule():
    import json
    import subprocess
    import sys

    code = "import json, sys, sgdnet; print(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert "numpy" not in loaded
    assert [name for name in loaded if name.startswith("sgdnet.")] == []


def _run_thread_probe(*args):
    import json
    import subprocess
    import sys

    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    proc = subprocess.run(
        [sys.executable, "-c", _THREAD_PROBE, *args], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_parsing_arguments_does_not_import_numpy():
    seen = _run_thread_probe("eval", "--run-dir", "r", "--test-edges", "t")
    assert seen["numpy_after_parse"] is False
    assert seen["code"] == 0
    assert seen["at_command"] == {}


@pytest.mark.parametrize("source", ["flag", "config"])
def test_thread_count_is_set_before_numpy_is_imported(tmp_path, source):
    args = ["eval", "--run-dir", "r", "--test-edges", "t"]
    if source == "flag":
        args += ["--threads", "3"]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("threads=3\n")
        args += ["--config", str(cfg)]
    seen = _run_thread_probe(*args)
    assert seen["numpy_after_parse"] is False
    assert seen["code"] == 0
    pinned = {var: "3" for var in _THREAD_ENV_VARS}
    assert seen["at_numpy_import"] == pinned
    assert seen["at_command"] == pinned
