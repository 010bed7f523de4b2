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
4 of them and the precomputed input diffusion 8.
"""

import functools
import os
import tempfile
import tracemalloc
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sgdnet.diffusion
import sgdnet.graph
import sgdnet.model
import sgdnet.training
from sgdnet.diffusion import DiffusionConfig
from sgdnet.features import OVERSAMPLE, init_features, load_features
from sgdnet.graph import EdgeList, normalize, save_edge_list
from sgdnet.model import (
    EdgeBatch,
    diffuse_inputs,
    init_params,
    load_checkpoint,
    loss_grad_logits,
)
from sgdnet.synthetic import random_signed_graph
from sgdnet.training import TrainConfig, backward, forward_loss, train

from helpers import ARTIFACT_DIMS, BYTE_MUTATIONS, write_mutated_artifact

N, D0, D = 4000, 128, 32


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


def backward_peak() -> float:
    """Peak of one L = 2 `backward` (n = 3000, d = 32, K = 4, zero mode)
    above what was live before its forward pass."""
    n, d = 3000, 32
    g = random_signed_graph(n, avg_out_degree=4.0, neg_fraction=0.3, seed=1)
    na = normalize(g)
    x = np.random.default_rng(2).standard_normal((n, 8))
    params = init_params(8, d, 2, seed=3)
    batch = EdgeBatch.from_edges(g.edges)
    cfg = DiffusionConfig(c=0.5, k_steps=4, m0_mode="zero")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _, logits, cache = forward_loss(na, x, params, cfg, batch, 0.0)
        grad_logits = loss_grad_logits(logits, batch.signs)
        tracemalloc.reset_peak()
        backward(cache, batch, grad_logits)
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
    # calling thread's peak, is the measured 17.61. On one CPU: 14.43.
    # Margin 0.3 / 0.4. Keeping the spent noise pair, pre beside tanh(pre),
    # the last epoch's cache and h0 measured 17.00 / 20.49.
    "epoch loop, L = 1": Row(functools.partial(epoch_loop_peak, 1), "n x d", 14.75, 18.0),
    # Layer 2 diffuses directly, so the top adjoint's walks set the peak; on
    # two CPUs with the noise worker's 3.17 at its worst beside them.
    # Measured 17.74 / 23.09, margin 0.25 / 0.4; before: 21.26 / 24.09.
    "epoch loop, L = 2": Row(functools.partial(epoch_loop_peak, 2), "n x d", 18.0, 23.5),
    # The peak falls inside the top layer's adjoint. Live there: what the
    # layer below still needs (h0, its channel block and its h_next, 4 n x d
    # arrays), dpre, the two walks' start states, which are their injects,
    # and each walk's current and next state while a product runs: about 11
    # arrays when the two walks' products overlap. Inline, the difference
    # walk starts after the sum walk has ended: about 9 arrays in all.
    # Separate c * start inject copies beside the start states measured 10.7
    # on one CPU; keeping dpm through the walks adds 2 more (11.7 there).
    # Measures 9.77 / 9.84.
    "backward, L = 2": Row(backward_peak, "n x d", 10.25, 12.25),
    # The sketch, Q and U are n x (rank + OVERSAMPLE) or narrower, and each
    # step frees the one it read. Keeping the sketch through a product or an
    # SVQB pass, or A^T Q through U = Q W, makes three. Measures 2.01.
    "init_features": Row(init_features_peak, "sketch arrays", 2.25, 2.25),
    # The payload, its finiteness mask (1/8 of it) and 16 KiB of Python's
    # own. The files are 6 KB to 1 MB: above about 19 KB, a second copy of
    # the payload breaks the bound. Measures 5.0.
    "binary readers": Row(reader_peak, "KiB above 9/8 of the file", 16.0, 16.0),
    # Each block's rows go through one tuple of Python ints (about 2.4 MiB
    # at 12-digit ids); formatting the four blocks at once would take ~9 MiB.
    # Measures 2.43.
    "save_edge_list": Row(save_edge_list_peak, "MiB", 4.0, 4.0),
}


@pytest.mark.parametrize("cpus", (1, 2))
@pytest.mark.parametrize("stage", MEMORY_TABLE)
def test_traced_peak_stays_under_its_bound(monkeypatch, stage, cpus):
    row = MEMORY_TABLE[stage]
    monkeypatch.setattr(sgdnet.diffusion, "_usable_cpus", lambda: cpus)
    peak = row.measure()
    bound = row.one_cpu if cpus == 1 else row.two_cpus
    assert peak < bound, f"{stage}: {peak:.3f} {row.unit}, bound {bound}"
