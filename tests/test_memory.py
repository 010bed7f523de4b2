"""Memory budgets: one table of traced peaks per stage.

Each row runs one stage under tracemalloc, which counts every numpy
allocation, and bounds its peak above what was live before it. A row
states its unit and two bounds, one with `diffusion._usable_cpus` patched
to 1 and one with it patched to 2. With one usable CPU the channel walks
and `train`'s noise draws run inline on the calling thread, so the peak is
the same on every run. With two the difference walk and the noise worker
run beside the calling thread; the bound covers the worst interleaving, in
which the threads' peaks fall at the same time. Rows that run no diffusion
bound both cases alike. Where a row's comment gives a measured value and a
margin, the bound is their sum; the comment also says what the bound
catches.

The training rows run on one generated graph shaped like Bitcoin-Alpha
(4,000 nodes, about 6 out-edges per node) with d0 = 128 input features
and d = 32. Their unit is one n x d float64 array (1 MB); x itself is
4 of them and the precomputed input diffusion 8. The parse rows read
generated edge files of 50,000 lines (0.6 to 1.5 MB) and count bytes per
byte of the file; `build_graph` and `normalize` run on the graph parsed
from the `tsv-sign` one. The writer rows count bytes per byte of the
payload they write.

Traced peaks do not show the heap that glibc keeps after a free, so one
test below also bounds the resident growth across a parse.
"""

import functools
import os
import platform
import subprocess
import sys
import tempfile
import tracemalloc
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sgdnet
import sgdnet.diffusion
import sgdnet.graph
import sgdnet.model
import sgdnet.training
from sgdnet.diffusion import DiffusionConfig
from sgdnet.evaluation import predict_edges
from sgdnet.features import OVERSAMPLE, init_features, load_features, save_features
from sgdnet.graph import (
    EdgeList,
    build_graph,
    load_edge_list,
    normalize,
    read_edge_tsv,
    save_edge_list,
)
from sgdnet.model import (
    diffuse_inputs,
    init_params,
    load_checkpoint,
    loss_grad_logits,
    save_checkpoint,
)
from sgdnet.training import TrainConfig, backward, forward_loss, train

from helpers import ARTIFACT_DIMS, BYTE_MUTATIONS, write_edge_file, write_mutated_artifact
from synthetic import random_signed_graph

N, D0, D = 4000, 128, 32
PARSE_LINES = 50_000


def traced_peak(run) -> int:
    """Traced peak of `run()`, in bytes above what was traced at its start."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@functools.lru_cache(maxsize=None)
def alpha_inputs():
    """The training rows' graph, normalized before any row traces it, and x."""
    g = random_signed_graph(N, avg_out_degree=6.0, seed=1)
    normalize(g)
    return g, np.random.default_rng(2).standard_normal((N, D0))


def diffuse_inputs_peak() -> float:
    g, x = alpha_inputs()
    cfg = TrainConfig(dim=D).diffusion()
    return traced_peak(lambda: diffuse_inputs(normalize(g), x, cfg)) / (N * D * 8)


def mix_peak() -> float:
    """Peak of one layer's channel mix, tanh([p || m] @ w_n + h_prev)."""
    rng = np.random.default_rng(6)
    pm, h_prev = rng.standard_normal((N, 2 * D)), rng.standard_normal((N, D))
    layer = init_params(D, D, 1, seed=4).layers[0]
    return traced_peak(lambda: sgdnet.model._mix(h_prev, pm, layer)) / (N * D * 8)


def epoch_loop_peak(n_layers: int) -> float:
    """Peak of `train`'s epochs on the precompute path (4 epochs x d = d0),
    counted from the return of `diffuse_inputs`, so the held input diffusion
    is in it."""
    g, x = alpha_inputs()
    real = sgdnet.training.diffuse_inputs

    def diffuse_then_reset(*args):
        out = real(*args)
        tracemalloc.reset_peak()
        return out

    cfg = TrainConfig(dim=D, n_layers=n_layers, epochs=4, seed=3)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sgdnet.training, "diffuse_inputs", diffuse_then_reset)
        return traced_peak(lambda: train(g, x, cfg)) / (N * D * 8)


def direct_epoch_peak(n_layers: int) -> float:
    """Peak of one epoch on the direct path (`forward_loss`, then
    `backward`), uniform mode, with no precomputed input diffusion."""
    g, x = alpha_inputs()
    na, edges = normalize(g), g.edges
    params, cfg = init_params(D0, D, n_layers, seed=3), TrainConfig(dim=D).diffusion()
    rng = np.random.default_rng(3)

    def epoch():
        _, logits, cache = forward_loss(na, x, params, cfg, edges, 1e-3, rng=rng)
        backward(cache, edges, loss_grad_logits(logits, edges.sign), 1e-3)

    return traced_peak(epoch) / (N * D * 8)


def predict_edges_peak() -> float:
    """Peak of `predict_edges` with one layer on every edge of the graph."""
    g, x = alpha_inputs()
    params, cfg = init_params(D0, D, 1, seed=3), TrainConfig(dim=D).diffusion()
    return traced_peak(lambda: predict_edges(g, x, params, cfg, g.edges)) / (N * D * 8)


def backward_peak() -> float:
    """Peak of one L = 2 `backward` (n = 3000, d = 32, K = 4, zero mode)
    above what was live before its forward pass."""
    n, d = 3000, 32
    g = random_signed_graph(n, avg_out_degree=4.0, neg_fraction=0.3, seed=1)
    na = normalize(g)
    x = np.random.default_rng(2).standard_normal((n, 8))
    params, edges = init_params(8, d, 2, seed=3), g.edges
    cfg = DiffusionConfig(c=0.5, k_steps=4, m0_mode="zero")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _, logits, cache = forward_loss(na, x, params, cfg, edges, 0.0)
        grad_logits = loss_grad_logits(logits, edges.sign)
        tracemalloc.reset_peak()
        backward(cache, edges, grad_logits)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - before) / (n * d * 8)


def init_features_peak() -> float:
    """Peak of `init_features` at rank 32 on 20,000 nodes, in sketch arrays
    of n x (rank + OVERSAMPLE) float64."""
    g = random_signed_graph(20000, avg_out_degree=8.0, seed=0)
    rank = 32
    return traced_peak(lambda: init_features(g, rank, seed=0)) / (g.n * (rank + OVERSAMPLE) * 8)


def reader_peak() -> float:
    """Largest peak of each binary reader over 40 mutated files of its own,
    in KiB above 9/8 of the file's size."""
    excess = []

    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(dims=ARTIFACT_DIMS, seed=st.integers(0, 2**32 - 1), mutation=BYTE_MUTATIONS)
    def read(artifact, dims, seed, mutation):
        load = load_features if artifact == "features" else load_checkpoint
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "artifact.bin")
            raw = write_mutated_artifact(path, artifact, dims, seed, mutation)

            def run():
                try:
                    load(path)
                except ValueError:
                    pass

            excess.append((traced_peak(run) - 9 / 8 * len(raw)) / 1024)

    for artifact in ("features", "checkpoint"):
        read(artifact=artifact)
    assert len(excess) >= 80
    return max(excess)


def save_edge_list_peak() -> float:
    """Peak of `save_edge_list` on four row blocks of 12-digit ids, in MiB."""
    rows = 4 * sgdnet.graph._ROW_BLOCK
    rng = np.random.default_rng(5)
    ids = rng.integers(0, 10**12, size=(2, rows))
    edges = EdgeList(ids[0], ids[1], np.where(rng.random(rows) < 0.8, 1, -1))
    with tempfile.TemporaryDirectory() as tmp:
        return traced_peak(lambda: save_edge_list(os.path.join(tmp, "edges.tsv"), edges)) / 2**20


def save_features_peak() -> float:
    """Peak of `save_features` on x, in bytes per payload byte."""
    _, x = alpha_inputs()
    with tempfile.TemporaryDirectory() as tmp:
        return traced_peak(lambda: save_features(os.path.join(tmp, "x.sgdf"), x)) / x.nbytes


def save_checkpoint_peak() -> float:
    """Peak of `save_checkpoint` on two layers at d0 = 512, d = 64 (a
    0.46 MB payload), in bytes per payload byte."""
    params = init_params(512, 64, 2, seed=3)
    payload = sum(w.nbytes for _, w in params.named())
    cfg = DiffusionConfig(c=0.35, k_steps=10)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "checkpoint.sgdn")
        return traced_peak(lambda: save_checkpoint(path, params, cfg)) / payload


def parse_peak(fmt) -> float:
    """Peak of one parse of a generated edge file, in bytes per file byte;
    fmt "dense-tsv" reads through `read_edge_tsv`."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "edges.txt")
        size = write_edge_file(path, fmt, PARSE_LINES, seed=7)
        if fmt == "dense-tsv":
            return traced_peak(lambda: read_edge_tsv(path)) / size
        return traced_peak(lambda: load_edge_list(path, fmt)) / size


@functools.lru_cache(maxsize=None)
def parsed_edges():
    """The parse rows' `tsv-sign` graph: (edges, n)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "edges.tsv")
        write_edge_file(path, "tsv-sign", PARSE_LINES, seed=7)
        edges, n, _ = load_edge_list(path, "tsv-sign")
    return edges, n


def build_graph_peak() -> float:
    """Peak of `build_graph`, in bytes per edge."""
    edges, n = parsed_edges()
    return traced_peak(lambda: build_graph(edges, n)) / len(edges)


def normalize_peak() -> float:
    """Peak of a first `normalize`, in bytes per stored entry."""
    g = build_graph(*parsed_edges())
    return traced_peak(lambda: normalize(g)) / g.a.nnz


class Row(NamedTuple):
    measure: Callable[[], float]
    unit: str
    one_cpu: float
    two_cpus: float


MEMORY_TABLE = {
    # x is diffused 32 columns at a time into one preallocated n x 2d0 block
    # (8): one block's inject, start copy and walk states sit beside it, on
    # two CPUs both walks' at once. Measured 12.17 / 13.35, margin 0.33 /
    # 0.4. One whole diffusion of x measured 16.17 / 20.35.
    "diffuse_inputs": Row(diffuse_inputs_peak, "n x d", 12.5, 13.75),
    # tanh is written into the buffer of pre = [p || m] @ w_n + h_prev,
    # beside which only the finiteness mask (1/8) lives. Measured 1.13,
    # margin 0.12; a separate tanh(pre) made 2.00.
    "_mix": Row(mix_peak, "n x d", 1.25, 1.25),
    # The held input diffusion (8), layer 1's block and h_next, the head and
    # the backward's dense arrays. On two CPUs the noise worker draws and
    # diffuses the next pair meanwhile; its own peak is 3.17 (m0, -m0 and a
    # walk's two states), and the worst interleaving, which puts it at the
    # calling thread's peak, is the measured 17.00. On one CPU: 13.83.
    # Margin 0.27 / 0.4. Keeping the logits through `backward` measured
    # 14.16 / 17.33; keeping the spent noise pair, pre beside tanh(pre), the
    # last epoch's cache and h0, 17.00 / 20.49.
    "epoch loop, L = 1": Row(functools.partial(epoch_loop_peak, 1), "n x d", 14.1, 17.4),
    # Layer 2 diffuses directly, so the top adjoint sets the peak as it
    # forms its two start sums; on two CPUs with the noise worker's 3.17 at
    # its worst beside them. Measured 17.09 / 20.27, margin 0.26 / 0.38;
    # with whole-width adjoint walks and the logits kept through `backward`:
    # 17.47 / 22.82.
    "epoch loop, L = 2": Row(functools.partial(epoch_loop_peak, 2), "n x d", 17.35, 20.65),
    # The peak falls inside the top layer's adjoint, as it forms the two
    # start sums from dpm = [dp || dm]. Live there: what the layer below
    # still needs (h0, its channel block and its h_next, 4 n x d arrays),
    # dpre, dpm (2) and the two sums (2). dpm is freed before the walks,
    # which walk 8 columns at a time: each holds its start, a block copy
    # (its inject) and the block's current and next state, 3/4 of an array
    # at d = 32. The walks reach 8.52 inline and 9.40 with both at once.
    # Measured 9.82 / 9.82, margin 0.28 / 0.38. Whole-width walks measured
    # 9.82 / 11.89 (6 arrays of walk state on two CPUs); keeping dpm
    # through the walks adds 2 to theirs.
    "backward, L = 2": Row(backward_peak, "n x d", 10.1, 10.2),
    # One epoch on the direct path, counted from before its forward pass, so
    # the cache is in it. On one CPU the layer-1 adjoint sets the peak as it
    # forms its start sums, beside the cache that backward has not yet
    # spent (h0, the logits and the lower layers' blocks); on two CPUs the
    # top layer's forward walks do, both at once. Measured 6.99 / 7.35 at
    # L = 1 and 10.01 / 10.35 at L = 2; margin 0.24 to 0.4. Whole-width
    # adjoint walks measured 7.03 / 9.20 and 10.05 / 12.23.
    "direct epoch, L = 1": Row(functools.partial(direct_epoch_peak, 1), "n x d", 7.25, 7.75),
    "direct epoch, L = 2": Row(functools.partial(direct_epoch_peak, 2), "n x d", 10.25, 10.75),
    # One zero-mode forward pass, the node scores and the edge softmax; the
    # diffusion's walks set the peak, on two CPUs both at once. Measured
    # 6.17 / 7.35, margin 0.33 / 0.4.
    "predict_edges": Row(predict_edges_peak, "n x d", 6.5, 7.75),
    # The writers write the array's own buffer, and check its finiteness
    # 16 KiB of mask at a time. A copy of the payload would add 1, and a
    # mask of the whole payload 0.125 (one per matrix: 0.075 on the
    # checkpoint, whose largest matrix w_in is 0.57 of it). Measured 0.0044
    # (x, 4 MB) and 0.0392 (the checkpoint, 0.46 MB); margin 0.027 and
    # 0.023.
    "save_features": Row(save_features_peak, "bytes per payload byte", 0.03125, 0.03125),
    "save_checkpoint": Row(save_checkpoint_peak, "bytes per payload byte", 0.0625, 0.0625),
    # The sketch, Q and U are n x (rank + OVERSAMPLE) or narrower, and each
    # step frees the one it read. Keeping the sketch through a product or an
    # SVQB pass, or A^T Q through U = Q W, makes three. Measures 2.01.
    "init_features": Row(init_features_peak, "sketch arrays", 2.25, 2.25),
    # The payload, its finiteness mask (1/8 of it, at most 16 KiB) and
    # 16 KiB of Python's own. The files are 6 KB to 1 MB: above about 19 KB,
    # a second copy of the payload breaks the bound. Measures 5.0.
    "binary readers": Row(reader_peak, "KiB above 9/8 of the file", 16.0, 16.0),
    # Each block's rows go through one tuple of Python ints (about 2.4 MiB
    # at 12-digit ids); formatting the four blocks at once would take ~9 MiB.
    # Measures 2.43.
    "save_edge_list": Row(save_edge_list_peak, "MiB", 4.0, 4.0),
    # The whole-file parse holds the text, its bytes and masks (about 3
    # bytes per byte), the field bounds and the table; each stage frees the
    # arrays it read before the next allocates, and the line index and the
    # text go before the fields are cut. Measured 8.24 (tsv-sign, 0.90 MB),
    # 7.42 (csv-rating, 1.45 MB) and 10.35 (read_edge_tsv, 0.59 MB), margin
    # 0.5 to 0.65; with the text and the line index held to the end and the
    # ids copied out of the table, 10.29, 9.01 and 12.78.
    "load_edge_list, tsv-sign": Row(functools.partial(parse_peak, "tsv-sign"),
                                    "bytes per file byte", 8.75, 8.75),
    "load_edge_list, csv-rating": Row(functools.partial(parse_peak, "csv-rating"),
                                      "bytes per file byte", 8.0, 8.0),
    "read_edge_tsv": Row(functools.partial(parse_peak, "dense-tsv"),
                         "bytes per file byte", 11.0, 11.0),
    # The sorted keys and signs, and the argsort or the run-head diffs: about
    # 4 int64 arrays of the edges. Measured 35.04, margin 1.96; holding the
    # sort order to the end and dividing out the rows and columns measured
    # 58.73.
    "build_graph": Row(build_graph_peak, "bytes per edge", 37.0, 37.0),
    # Two arrays of one float64 per entry: each entry's row degree and S's
    # values, then S's and D's values. Measured 16.06, margin 0.94;
    # gathering the degrees through an index of each entry's row measured
    # 25.41.
    "normalize": Row(normalize_peak, "bytes per entry", 17.0, 17.0),
}


@pytest.mark.parametrize("cpus", (1, 2))
@pytest.mark.parametrize("stage", MEMORY_TABLE)
def test_traced_peak_stays_under_its_bound(monkeypatch, stage, cpus):
    row = MEMORY_TABLE[stage]
    monkeypatch.setattr(sgdnet.diffusion, "_usable_cpus", lambda: cpus)
    peak = row.measure()
    bound = row.one_cpu if cpus == 1 else row.two_cpus
    assert peak < bound, f"{stage}: {peak:.3f} {row.unit}, bound {bound}"


# Run in a fresh interpreter, so that no earlier test has shaped its heap:
# the resident growth in bytes after one `load_edge_list`, and after a
# second one whose result replaces the first.
RSS_GROWTH_SCRIPT = """
import gc
import os
import sys
from sgdnet.graph import load_edge_list

def resident():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")

before = resident()
parsed = load_edge_list(sys.argv[1], "tsv-sign")
print(resident() - before)
del parsed
gc.collect()
parsed = load_edge_list(sys.argv[1], "tsv-sign")
print(resident() - before)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/statm") or platform.libc_ver()[0] != "glibc",
                    reason="reads /proc/self/statm; the bound is glibc's heap")
def test_parse_leaves_little_freed_heap_resident(tmp_path):
    # glibc places the arrays below its dynamic mmap threshold (raised by
    # each large free) in one heap, which shrinks only from its top. An
    # output allocated while the stage's temporaries live sits above them
    # and keeps their freed pages resident. On a 2.15 MB tsv-sign file with
    # 4.94 MB held after the parse, the growth measured 12.45 MB after one
    # parse and 12.5 MB after two (CPython 3.11, glibc 2.36). Holding each
    # stage's temporaries until its outputs exist made it 25.36 MB; holding
    # only the table through the ids, 19.9 MB after one parse; holding the
    # ids' sorted keys and index through the collapse, 16.1 MB after two.
    # Bound: what one parse holds plus 4.5 bytes per file byte.
    path = tmp_path / "edges.tsv"
    size = write_edge_file(path, "tsv-sign", 120_000, seed=11)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        parsed = load_edge_list(path, "tsv-sign")
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(parsed[0]) > 100_000
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(sgdnet.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src_dir, os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run([sys.executable, "-c", RSS_GROWTH_SCRIPT, str(path)], env=env,
                         capture_output=True, text=True, check=True)
    bound = held + 4.5 * size
    for parses, growth in enumerate(map(int, out.stdout.split()), start=1):
        assert growth < bound, (
            f"resident growth after parse {parses}: {growth / 1e6:.2f} MB, "
            f"bound {bound / 1e6:.2f} MB")
