import errno
import os
import re
import shutil

import numpy as np
import pytest

import sgdnet.atomic
import sgdnet.graph
from sgdnet.cli import main
from sgdnet.diffusion import DiffusionConfig
from sgdnet.features import load_features, save_features
from sgdnet.graph import (
    EdgeList,
    SignedEdge,
    as_edge_list,
    load_id_map,
    read_edge_tsv,
    save_edge_list,
    save_id_map,
)
from sgdnet.model import init_params, load_checkpoint, save_checkpoint
from sgdnet.synthetic import planted_partition_graph

PARAMS = init_params(4, 3, 1, seed=0)
FEATURES = np.arange(24.0).reshape(6, 4)
EDGES = [SignedEdge(i, i + 1, 1 if i % 3 else -1) for i in range(50)]
ID_MAP = {f"node{i}": i for i in range(50)}

SAVERS = {
    "checkpoint": lambda path: save_checkpoint(path, PARAMS, DiffusionConfig(c=0.5, k_steps=3)),
    "features": lambda path: save_features(path, FEATURES),
    "edge_list": lambda path: save_edge_list(path, EDGES),
    "id_map": lambda path: save_id_map(path, ID_MAP),
}
PREVIOUS = b"previous contents\n"


class DiskFullAfter:
    """A file that accepts `budget` bytes or characters, then fails: the
    write that crosses the budget stores the part that fits and raises."""

    def __init__(self, fh, budget):
        self.fh = fh
        self.budget = budget
        self.written = 0

    def write(self, data):
        if self.written + len(data) > self.budget:
            fits = self.budget - self.written
            self.written += self.fh.write(data[:fits])
            raise OSError(errno.ENOSPC, "No space left on device")
        self.written += len(data)
        return self.fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


@pytest.mark.parametrize("name", sorted(SAVERS))
def test_write_failing_midway_keeps_the_previous_file(tmp_path, monkeypatch, name):
    path = tmp_path / "artifact"
    path.write_bytes(PREVIOUS)
    opened = []

    def failing_open(file, mode, **kwargs):
        opened.append(DiskFullAfter(open(file, mode, **kwargs), budget=12))
        return opened[-1]

    monkeypatch.setattr(sgdnet.atomic, "open", failing_open, raising=False)
    with pytest.raises(OSError):
        SAVERS[name](path)
    assert opened and opened[0].written > 0  # the failure came mid-write
    assert path.read_bytes() == PREVIOUS
    assert os.listdir(tmp_path) == ["artifact"]


def test_interrupted_write_keeps_the_previous_file(tmp_path):
    path = tmp_path / "edges.tsv"
    path.write_bytes(PREVIOUS)

    def interrupted():
        yield from EDGES[:10]
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        save_edge_list(path, interrupted())
    assert path.read_bytes() == PREVIOUS
    assert os.listdir(tmp_path) == ["edges.tsv"]


def test_edge_list_interrupted_midway_keeps_the_previous_file(tmp_path, monkeypatch):
    # Rows are written a block at a time: three blocks of edges, and a budget
    # that lets the first block through and interrupts the second.
    i = np.arange(3 * sgdnet.graph._ROW_BLOCK)
    edges = EdgeList(i, i + 1, np.where(i % 3, 1, -1))
    first_block = "".join("%d\t%d\t%d\n" % e for e in edges[: sgdnet.graph._ROW_BLOCK])
    path = tmp_path / "edges.tsv"
    path.write_bytes(PREVIOUS)
    opened = []

    class InterruptedAfter(DiskFullAfter):
        def write(self, data):
            if self.written + len(data) > self.budget:
                raise KeyboardInterrupt
            return super().write(data)

    def interrupting_open(file, mode, **kwargs):
        opened.append(InterruptedAfter(open(file, mode, **kwargs), budget=len(first_block) + 1))
        return opened[-1]

    monkeypatch.setattr(sgdnet.atomic, "open", interrupting_open, raising=False)
    with pytest.raises(KeyboardInterrupt):
        save_edge_list(path, edges)
    assert opened and opened[0].written > 0
    assert path.read_bytes() == PREVIOUS
    assert os.listdir(tmp_path) == ["edges.tsv"]


def test_saves_replace_the_previous_file(tmp_path):
    paths = {name: tmp_path / name for name in SAVERS}
    for name, save in SAVERS.items():
        paths[name].write_bytes(PREVIOUS)
        save(paths[name])
    assert sorted(os.listdir(tmp_path)) == sorted(SAVERS)

    params, cfg = load_checkpoint(paths["checkpoint"])
    for (_, got), (_, want) in zip(params.named(), PARAMS.named()):
        assert np.array_equal(got, want)
    assert (cfg.c, cfg.k_steps) == (0.5, 3)
    assert np.array_equal(load_features(paths["features"]), FEATURES)
    assert list(read_edge_tsv(paths["edge_list"])) == EDGES
    assert load_id_map(paths["id_map"]) == ID_MAP


def _non_finite_params():
    params = init_params(4, 3, 1, seed=0)
    params.w_head[-1, -1] = np.nan
    return params


# The binary writers refuse a non-finite entry before they open anything.
NON_FINITE_SAVERS = {
    "checkpoint": lambda path: save_checkpoint(
        path, _non_finite_params(), DiffusionConfig(c=0.5, k_steps=3)
    ),
    "features": lambda path: save_features(path, np.where(FEATURES == 5.0, np.inf, FEATURES)),
}


@pytest.mark.parametrize("name", sorted(NON_FINITE_SAVERS))
def test_non_finite_save_names_the_file_and_leaves_nothing_behind(tmp_path, name):
    path = tmp_path / name
    with pytest.raises(ValueError, match=re.escape(f"{path}: ") + ".*non-finite"):
        NON_FINITE_SAVERS[name](path)
    assert os.listdir(tmp_path) == []


# ---------------------------------------------------------------- CLI text artifacts

# Each CLI text artifact: the command that writes it, run inside a copy of
# `cli_dirs`, and the artifact's path there.
CLI_ARTIFACTS = {
    "summary.txt": (
        ["prep", "--input", "toy.tsv", "--out-dir", "prep", "--svd-rank", "8"],
        "prep/summary.txt",
    ),
    "loss.csv": (
        ["train", "--prep-dir", "prep", "--out-dir", "run", "--dim", "8", "--epochs", "2"],
        "run/loss.csv",
    ),
    "predictions.csv": (
        ["eval", "--run-dir", "run", "--test-edges", "run/test_edges.tsv"],
        "run/predictions.csv",
    ),
    "diffusion.csv": (["diffuse", "--prep-dir", "prep", "--k", "3"], "prep/diffusion.csv"),
    "runs.csv": (
        ["experiment", "--dataset", "generic-tsv", "--input", "toy.tsv", "--seeds", "1",
         "--epochs", "2", "--dim", "8", "--svd-rank", "8", "--out-dir", "exp"],
        "exp/runs.csv",
    ),
}


@pytest.fixture(scope="module")
def cli_dirs(tmp_path_factory):
    """A toy edge file, its prep directory and a trained run directory."""
    root = tmp_path_factory.mktemp("cli")
    save_edge_list(root / "toy.tsv", planted_partition_graph(n=40, seed=0).edges)
    cwd = os.getcwd()
    os.chdir(root)
    try:
        assert main(CLI_ARTIFACTS["summary.txt"][0]) == 0
        assert main(CLI_ARTIFACTS["loss.csv"][0]) == 0
    finally:
        os.chdir(cwd)
    return root


@pytest.mark.parametrize("name", sorted(CLI_ARTIFACTS))
def test_cli_write_failing_midway_keeps_the_previous_file(
    tmp_path, monkeypatch, cli_dirs, name
):
    argv, artifact = CLI_ARTIFACTS[name]
    shutil.copytree(cli_dirs, tmp_path, dirs_exist_ok=True)
    monkeypatch.chdir(tmp_path)
    path = tmp_path / artifact
    path.parent.mkdir(exist_ok=True)
    path.write_bytes(PREVIOUS)
    opened = []

    def failing_open(file, mode, **kwargs):
        fh = open(file, mode, **kwargs)
        if not os.path.basename(file).startswith(f".{name}."):
            return fh  # the command's other artifacts are written normally
        opened.append(DiskFullAfter(fh, budget=12))
        return opened[-1]

    monkeypatch.setattr(sgdnet.atomic, "open", failing_open, raising=False)
    assert main(argv) == 2  # a file-system error is reported, not raised
    assert opened and opened[0].written > 0  # the failure came mid-write
    assert path.read_bytes() == PREVIOUS
    assert not [f for f in os.listdir(path.parent) if f.endswith(".tmp")]
