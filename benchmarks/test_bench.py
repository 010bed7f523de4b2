"""Smoke tests of the benchmark: seconds-long runs of every workload on
shrunken graphs, plus the input generator.

    PYTHONPATH=src python -m pytest -q benchmarks
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gen
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "benchmarks" / "run.py"), *map(str, args)],
        capture_output=True, text=True, cwd=cwd, timeout=120,
    )


def smoke(workload, trace):
    done = bench("--workload", workload, "--seed", 3, "--seconds", 0, "--trace", trace,
                 "--scale", "smoke")
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    tag = f"{workload}-seed3-trace{trace}-smoke"
    record = json.loads((ROOT / ".bench_results" / f"{tag}.json").read_text())
    return result, record, tag


def test_generator_hits_the_shape_exactly():
    shape = gen.scaled(gen.EPINIONS, 0.02)
    g = gen.signed_edges(shape, seed=5)
    keys = g.src * g.n + g.dst
    assert g.n == shape.n and len(keys) == shape.m
    assert len(np.unique(keys)) == shape.m
    assert not np.any(g.src == g.dst)
    assert len(np.union1d(g.src, g.dst)) == shape.n  # every id appears
    assert np.sum(g.sign > 0) == round(shape.pos_share * shape.m)


def test_generator_is_seeded_and_heavy_tailed():
    a = gen.signed_edges(gen.ALPHA, seed=1)
    b = gen.signed_edges(gen.ALPHA, seed=1)
    c = gen.signed_edges(gen.ALPHA, seed=2)
    assert all(np.array_equal(x, y) for x, y in zip((a.src, a.dst, a.sign), (b.src, b.dst, b.sign)))
    assert not np.array_equal(a.src, c.src)
    out_deg = np.bincount(a.src, minlength=a.n)
    in_deg = np.bincount(a.dst, minlength=a.n)
    mean = len(a.src) / a.n
    assert out_deg.max() > 10 * mean and in_deg.max() > 10 * mean


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result, record, _ = smoke(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    env = record["environment"]
    assert env["workload_seed"] == 3 and env["inputs_sha256"]
    assert env["thread_pins"]["OPENBLAS_NUM_THREADS"] == "1"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_nests_spans_and_changes_no_output(workload):
    result, record, tag = smoke(workload, 1)
    assert result["correct"] and result["failed"] == 0, record["failures"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected

    plain, traced = record["children"]
    assert plain["outputs"] == traced["outputs"]  # losses and predictions, bit for bit
    assert plain["outputs"]

    raw = [tuple(s) for s in json.loads((ROOT / ".bench_results" / f"{tag}-spans.json").read_text())]
    assert spans.check_nesting(raw) == []
    assert all(v["median_self_s"] >= 0 for v in spans.summarize(raw).values())
    names = {s[0]: s[1] for s in raw}
    parents = {(names.get(s[4]), s[1]) for s in raw}
    if workload == "alpha-seed":
        # Names bound by `from ... import` are traced where they are looked up.
        assert ("evaluation.run_seed", "training.train") in parents
        assert ("evaluation.run_seed", "features.init_features") in parents
        assert ("training.forward_loss", "model.model_forward") in parents
    if workload == "epinions-prep":
        assert not any(n.startswith("diffusion.") for n in names.values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", WORKLOADS[0], "--seed", 1, "--seconds", 1, "--trace", 0,
                 cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout
