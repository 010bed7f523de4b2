"""sgdnet benchmark: one command for every workload in BENCHMARK.json.

    python3 benchmarks/run.py --workload alpha-seed --seed 1 --seconds 20 --trace 0

The command generates the workload's inputs from `--seed`, then runs the
workload in a fresh process with BLAS pinned to one thread and `src` on the
import path. Load is a closed loop: one sequential batch job, as a user runs
`sgdnet experiment`, `train` or `prep`. The child runs the set-up several
times, then job units until `--seconds` have passed, and checks every output.

With `--trace 0` the last line of stdout is a JSON object with the
end-to-end metrics. With `--trace 1` the workload runs twice, once untraced
and once with every public function of the sgdnet modules wrapped in a span,
one job unit each. The last line then carries the per-layer metrics, the
time no span covers and the tracing overhead, and the two runs must agree
bit for bit on losses and predictions.

A full record (environment, raw samples, failures, span summary) is written
to `.bench_results/`; generated inputs live in `.bench_work/` and are
removed at the end. `--scale smoke` shrinks every graph for the tests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import gen

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
CHILD_TIMEOUT_S = 170

# The Epinions-shaped workloads run at half the real graph (n=65,914,
# m=420,686, 85.3% positive), so that a measurement campaign of 70 runs over
# the three workloads ends within an hour on two cores. On the full graph an
# epoch takes ~10 s, a prep pass ~31 s and a set-up ~6.7 s (one thread of a
# 2-core Xeon), too long to repeat within a run. At half size one n x 32
# matrix is still ~17 MB, eight times a 2 MB L2, so the sparse diffusion
# stays memory-bound as on the full graph.
EPINIONS_FACTOR = 0.5
SCALES = {
    "full": {"alpha": gen.ALPHA, "epinions": gen.scaled(gen.EPINIONS, EPINIONS_FACTOR)},
    "smoke": {"alpha": gen.scaled(gen.ALPHA, 0.1), "epinions": gen.scaled(gen.EPINIONS, 0.01)},
}

# The job unit each workload times, by its name in the printed report.
JOB_METRIC = {"alpha-seed": "seed_s", "epinions-train": "epoch_s", "epinions-prep": "prep_s"}
# Further end-to-end figures printed per workload (not gated).
EXTRA = {
    "alpha-seed": (("test_auc", "1"), ("test_f1_macro", "1")),
    "epinions-train": (("predict_s", "s"),),
    "epinions-prep": (),
}

# Per-layer metrics: the median per call of a span's duration (`s`) or self
# time (`self_s`), each with its call count.
LAYER_SPANS = (
    ("graph.load_edge_list", "s"),
    ("graph.read_edge_tsv", "s"),
    ("graph.build_graph", "s"),
    ("graph.normalize", "s"),
    ("graph.save_edge_list", "s"),
    ("features.randomized_svd", "s"),
    ("features.init_features", "s"),
    ("features.save_features", "s"),
    ("features.load_features", "s"),
    ("diffusion.diffuse", "s"),
    ("diffusion.diffuse_adjoint", "s"),
    ("model.model_forward", "self_s"),
    ("model.edge_logits", "s"),
    ("model.loss_total", "s"),
    ("training.forward_loss", "s"),
    ("training.backward", "self_s"),
    ("training.Adam.step", "s"),
    ("training.train", "s"),
    ("evaluation.split_edges", "s"),
    ("evaluation.predict_edges", "s"),
    ("evaluation.auc", "s"),
    ("evaluation.run_seed", "s"),
)
LAYER_MODULES = ("graph", "features", "diffusion", "model", "training", "evaluation")


def make_inputs(workload: str, seed: int, scale: str, out: Path) -> dict[str, str]:
    """Write the workload's input files; returns their sha256 by name."""
    shapes = SCALES[scale]
    if workload == "alpha-seed":
        g = gen.signed_edges(shapes["alpha"], seed)
        gen.write_csv_rating(out / "alpha.csv", g, seed)
    elif workload == "epinions-train":
        g = gen.signed_edges(shapes["epinions"], seed)
        gen.write_dense_tsv(out / "edges.tsv", g)
        gen.write_sgdf(out / "features.sgdf", gen.random_features(g.n, 128, seed))
    else:
        g = gen.signed_edges(shapes["epinions"], seed)
        gen.write_tsv_sign(out / "raw.tsv", g, seed)
    return {p.name: file_sha256(p) for p in sorted(out.iterdir())}


def file_sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def environment(seed: int, inputs: dict[str, str]) -> dict:
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), "")
    except OSError:
        pass

    def cache(name):
        try:
            return os.sysconf(name)
        except (ValueError, OSError):
            return None

    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = done.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_pins": {v: "1" for v in THREAD_VARS},
        "cpu": cpu or platform.processor(),
        "l2_bytes": cache("SC_LEVEL2_CACHE_SIZE"),
        "l3_bytes": cache("SC_LEVEL3_CACHE_SIZE"),
        "git_commit": commit,
        "inputs_sha256": inputs,
        "workload_seed": seed,
    }


def run_child(workload, seed, seconds, scale, inputs: Path, out: Path, trace=False, units=None):
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = [
        sys.executable, str(HERE / "workload.py"), "--workload", workload,
        "--inputs", str(inputs), "--seed", str(seed), "--seconds", str(seconds),
        "--scale", scale, "--out", str(out),
    ]
    if trace:
        cmd.append("--trace")
    if units is not None:
        cmd += ["--units", str(units)]
    subprocess.run(cmd, check=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT, env=env)
    return json.loads(out.read_text())


def summary(values) -> dict:
    """Median, sample count and the highest percentile with at least ten
    samples beyond it (none below 100 samples)."""
    out = {"median": statistics.median(values), "n": len(values)}
    for pct in (99, 95, 90):
        if len(values) * (100 - pct) / 100 >= 10:
            out[f"p{pct}"] = statistics.quantiles(values, n=100)[pct - 1]
            break
    return out


def end_to_end(workload: str, child: dict, peak_rss_mb: float) -> tuple[dict, list[str]]:
    samples = child["samples"]
    job = JOB_METRIC[workload]
    lines = []

    def line(name, unit, values):
        s = summary(values)
        tail = ", ".join(f"{k} {v:.6g}" for k, v in s.items() if k.startswith("p"))
        lines.append(
            f"{workload:<15} {name:<14} {s['median']:.6g} {unit}"
            f"  (median of {s['n']}; {tail or 'no percentile has 10 samples beyond it'})"
        )
        return s["median"]

    metrics = {
        "setup_s": {"value": line("setup_s", "s", samples["setup_s"]), "unit": "s"},
        "job_s": {"value": line(job, "s", samples[job]), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    for name, unit in EXTRA[workload]:
        line(name, unit, samples[name])
    lines.append(f"{workload:<15} {'peak_rss_mb':<14} {peak_rss_mb:.6g} MB")
    fail_ratio = child["failed"] / child["attempted"]
    lines.append(f"{workload:<15} {'fail_ratio':<14} {fail_ratio:.6g} 1"
                 f"  ({child['failed']} of {child['attempted']} operations)")
    return metrics, lines


def per_layer(workload: str, plain: dict, traced: dict) -> tuple[dict, list[str]]:
    """Per-function medians over the whole traced run; per-module self time,
    uncovered time and diffusion throughput over its one job unit."""
    layers, unit = traced["layers"], traced["unit_layers"]
    metrics = {}
    for span, field in LAYER_SPANS:
        info = layers.get(span)
        value = 0.0 if info is None else info["median_self_s" if field == "self_s" else "median_s"]
        metrics[f"{span}.{field}"] = {"value": value, "unit": "s"}
        metrics[f"{span}.calls"] = {"value": 0 if info is None else info["calls"], "unit": "count"}
    for module in LAYER_MODULES:
        self_s = sum(v["total_self_s"] for k, v in unit.items() if k.split(".")[0] == module)
        metrics[f"{module}.self_s"] = {"value": self_s, "unit": "s"}
    # Time inside the job unit that no sgdnet span covers.
    uncovered = unit["bench.unit"]["total_self_s"]
    metrics["bench.uncovered_s"] = {"value": uncovered, "unit": "s"}
    diff = [unit[k] for k in ("diffusion.diffuse", "diffusion.diffuse_adjoint") if k in unit]
    busy = sum(v["total_s"] for v in diff)
    gflops = sum(v["flops"] for v in diff) / busy * 1e-9 if busy else 0.0
    metrics["diffusion.gflops"] = {"value": gflops, "unit": "GFLOP/s"}
    # Tracing overhead: traced minus untraced, on each timing of the run.
    overhead = {
        name: statistics.median(traced["samples"][name]) - statistics.median(values)
        for name, values in plain["samples"].items()
        if name.endswith("_s")
    }
    for name in ("setup_s", "job_s"):
        delta = overhead[JOB_METRIC[workload] if name == "job_s" else name]
        metrics[f"trace_overhead.{name}"] = {"value": delta, "unit": "s"}

    wall = unit["bench.unit"]["total_s"]
    lines = [f"{workload}: self time of one job unit ({wall:.4g} s)"]
    for module in LAYER_MODULES:
        value = metrics[f"{module}.self_s"]["value"]
        lines.append(f"  {module + '.self_s':<34} {value:>10.4f} s {value / wall:>7.1%}")
    lines.append(f"  {'bench.uncovered_s':<34} {uncovered:>10.4f} s {uncovered / wall:>7.1%}")
    top = sorted(unit.items(), key=lambda kv: -kv[1]["total_self_s"])
    lines.append("  largest spans by self time:")
    for name, v in [kv for kv in top if not kv[0].startswith("bench.")][:8]:
        lines.append(
            f"    {name:<32} {v['total_self_s']:>10.4f} s {v['total_self_s'] / wall:>7.1%}"
            f"  ({v['calls']} calls)"
        )
    lines.append(f"  diffusion.gflops {gflops:.4g} GFLOP/s (computed: 2*2*nnz*d*K per call)")
    for name, delta in overhead.items():
        lines.append(f"  trace_overhead.{name} {delta:+.4g} s (traced minus untraced)")
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="sgdnet benchmark")
    parser.add_argument("--workload", choices=sorted(JOB_METRIC), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sgdnet" / "__init__.py").is_file():
        print(f"error: no sgdnet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.scale}"
    work = ROOT / ".bench_work" / tag
    results = ROOT / ".bench_results"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results.mkdir(exist_ok=True)
    try:
        inputs_dir = work / "inputs"
        inputs_dir.mkdir()
        start = time.perf_counter()
        hashes = make_inputs(args.workload, args.seed, args.scale, inputs_dir)
        gen_s = time.perf_counter() - start
        common = (args.workload, args.seed, args.seconds, args.scale, inputs_dir)
        if args.trace:
            plain = run_child(*common, work / "plain.json", units=1)
            traced = run_child(*common, work / "traced.json", trace=True, units=1)
            children = [plain, traced]
            metrics, lines = per_layer(args.workload, plain, traced)
        else:
            plain = run_child(*common, work / "plain.json")
            peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
            children = [plain]
            metrics, lines = end_to_end(args.workload, plain, peak_rss_mb)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = [f for c in children for f in c["failures"]]
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    if args.trace:
        # One more operation: the traced run must nest properly and agree
        # with the untraced one bit for bit.
        attempted += 1
        problems = list(traced["span_problems"])
        if plain["outputs"] != traced["outputs"]:
            problems.append("traced and untraced runs gave different losses or predictions")
        failures += problems
        failed += bool(problems)

    record = {
        "environment": environment(args.seed, hashes),
        "input_generation_s": gen_s,
        "metrics": metrics,
        "failures": failures,
        "children": [{k: v for k, v in c.items() if k != "spans"} for c in children],
    }
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        (results / f"{tag}-spans.json").write_text(json.dumps(traced["spans"]))

    for line in lines:
        print(line)
    for failure in failures:
        print(f"FAILED: {failure}")
    print(f"record: {results / (tag + '.json')}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
