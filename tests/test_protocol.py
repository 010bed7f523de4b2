"""Equivalence gate for the command line: a fixed-seed prep -> train ->
eval -> experiment run on a generated csv-rating file must reproduce pinned
losses and metrics, and `sgdnet train` must write what the library's
protocol step computes, bit for bit."""

import contextlib
import csv
import io
import os

import numpy as np
import pytest

from sgdnet.cli import main
from sgdnet.evaluation import ExperimentConfig, _split_features, auc
from sgdnet.features import load_features
from sgdnet.graph import read_edge_tsv
from sgdnet.model import load_checkpoint
from sgdnet.training import train


def write_ratings(path, n=60, m=500, seed=11):
    """Two camps of nodes: ratings agree in sign inside a camp and disagree
    across camps, with 10% of the signs flipped."""
    rng = np.random.default_rng(seed)
    camp = rng.integers(0, 2, n)
    src, dst = rng.integers(0, n, m), rng.integers(0, n, m)
    src, dst = src[src != dst], dst[src != dst]
    agree = (camp[src] == camp[dst]) ^ (rng.random(len(src)) < 0.1)
    size = rng.integers(1, 11, len(src))
    rating = np.where(agree, size, -size)
    rows = [f"{s},{t},{r},{i}" for i, (s, t, r) in enumerate(zip(src, dst, rating))]
    path.write_text("\n".join(rows) + "\n")


# `train` sets every model flag away from its default; `experiment` takes
# bitcoin-otc's layer count and c from the dataset table.
PROTOCOL = {
    "prep": ["prep", "--input", "raw.csv", "--format", "csv-rating", "--out-dir", "prep",
             "--svd-rank", "16", "--seed", "1"],
    "train": ["train", "--prep-dir", "prep", "--out-dir", "run", "--layers", "2",
              "--c", "0.45", "--k", "4", "--dim", "8", "--lr", "0.02",
              "--weight-decay", "0.002", "--epochs", "20", "--m0", "uniform",
              "--seed", "2", "--split-ratio", "0.2", "--svd-rank", "12"],
    "train_all": ["train", "--prep-dir", "prep", "--out-dir", "run0", "--dim", "8",
                  "--k", "4", "--epochs", "20", "--seed", "2", "--split-ratio", "0",
                  "--m0", "zero"],
    "eval": ["eval", "--run-dir", "run", "--test-edges", "run/test_edges.tsv"],
    "experiment": ["experiment", "--dataset", "bitcoin-otc", "--input", "raw.csv",
                   "--seeds", "2", "--epochs", "20", "--dim", "8", "--k", "4",
                   "--svd-rank", "16", "--out-dir", "exp"],
}


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def run_protocol(root):
    """Run every PROTOCOL step inside `root`; return each step's stdout."""
    write_ratings(root / "raw.csv")
    cwd = os.getcwd()
    os.chdir(root)
    stdout = {}
    try:
        for step, argv in PROTOCOL.items():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                assert main(argv) == 0, step
            stdout[step] = buf.getvalue()
    finally:
        os.chdir(cwd)
    return stdout


def protocol_values(root, stdout):
    """The pinned values of a protocol run."""
    preds = read_csv(root / "run" / "predictions.csv")
    runs = read_csv(root / "exp" / "runs.csv")
    return {
        "train_loss": [float(r["loss"]) for r in read_csv(root / "run" / "loss.csv")],
        "train_all_loss": [float(r["loss"]) for r in read_csv(root / "run0" / "loss.csv")],
        "eval_auc": auc([float(r["p_plus"]) for r in preds], [int(r["label"]) for r in preds]),
        "eval_lines": [line for line in stdout["eval"].splitlines()
                       if line.startswith(("auc", "f1_macro"))],
        "runs": [(r["seed"], r["auc"], r["f1_macro"]) for r in runs],
    }


# Captured from the command line before `sgdnet train` and `run_seed` shared
# one protocol step; the loss columns are written with 10 significant digits.
GOLDEN = {
    "train_loss": [
        0.7325048123, 0.7184881456, 0.7074540404, 0.6976463146, 0.6889558293,
        0.6805282084, 0.6727779957, 0.6661633739, 0.6613505865, 0.6582596098,
        0.6563788437, 0.6540905209, 0.6517275853, 0.6494708921, 0.6482745411,
        0.6476148493, 0.6476088317, 0.6473264551, 0.6471064448, 0.6465539619,
    ],
    "train_all_loss": [
        0.7102836151, 0.7022413796, 0.6952835757, 0.6889105443, 0.6828142641,
        0.6768927933, 0.6711464117, 0.6656461225, 0.6605181427, 0.6559242822,
        0.6520197568, 0.6488984829, 0.6465379794, 0.6447813441, 0.6433911067,
        0.6421473404, 0.6409244371, 0.6397046941, 0.6385450797, 0.637529013,
    ],
    "eval_auc": 0.5661846496106785,
    "eval_lines": ["auc       0.5662", "f1_macro  0.5858"],
    "runs": [
        ("0", "0.5362244898", "0.4774951076"),
        ("1", "0.5333670374", "0.4310502283"),
        ("summary", "0.5348+/-0.0020", "0.4543+/-0.0328"),
    ],
}


@pytest.fixture(scope="module")
def protocol_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("protocol")
    return root, run_protocol(root)


def test_protocol_matches_golden_values(protocol_run):
    got = protocol_values(*protocol_run)
    for key in ("train_loss", "train_all_loss"):
        np.testing.assert_allclose(got[key], GOLDEN[key], rtol=1e-10, atol=0.0)
    np.testing.assert_allclose(got["eval_auc"], GOLDEN["eval_auc"], rtol=1e-10, atol=0.0)
    assert got["eval_lines"] == GOLDEN["eval_lines"]
    assert got["runs"] == GOLDEN["runs"]


def test_experiment_takes_the_dataset_defaults(protocol_run):
    _, stdout = protocol_run
    assert "layers=2 c=0.25 k=4 seeds=2" in stdout["experiment"]


def test_train_writes_what_the_library_computes(protocol_run):
    root, _ = protocol_run
    run = root / "run"
    config = ExperimentConfig(svd_rank=12, dim=8, n_layers=2, c=0.45, k_steps=4, lr=0.02,
                              weight_decay=0.002, epochs=20, ratio=0.2, m0_mode="uniform")
    edges = read_edge_tsv(root / "prep" / "edges.tsv")
    split, graph, x, train_seed = _split_features(edges, 60, config.ratio, config.svd_rank, 2)

    test_edges = read_edge_tsv(run / "test_edges.tsv")
    for name in ("src", "dst", "sign"):
        assert np.array_equal(getattr(test_edges, name), getattr(split.test, name))
    assert np.array_equal(read_edge_tsv(run / "train_edges.tsv").src, graph.edges.src)
    assert load_features(run / "train_features.sgdf").tobytes() == x.tobytes()

    params, _ = train(graph, x, config.train_config(train_seed))
    saved, dcfg = load_checkpoint(run / "checkpoint.sgdn")
    assert (dcfg.c, dcfg.k_steps) == (0.45, 4)
    for (name, got), (_, want) in zip(saved.named(), params.named()):
        assert got.tobytes() == want.tobytes(), name
