"""Synthetic signed graph generators for the tests and the CI toy graph."""

from __future__ import annotations

import numpy as np

from sgdnet.graph import SignedDigraph, SignedEdge, build_graph


def random_signed_graph(
    n: int,
    avg_out_degree: float = 4.0,
    neg_fraction: float = 0.3,
    deadend_fraction: float = 0.1,
    seed: int = 0,
) -> SignedDigraph:
    """Random signed digraph with mixed signs and a controllable deadend share.

    A `deadend_fraction` slice of nodes gets no outgoing edges; the rest draw
    a Poisson number of out-neighbors (at least one). Self-loops are allowed,
    duplicate (src, dst) pairs keep the last drawn sign.
    """
    if n < 2:
        raise ValueError(f"need at least 2 nodes, got {n}")
    rng = np.random.default_rng(seed)
    n_deadends = int(deadend_fraction * n)
    sources = np.arange(n)[n_deadends:] if n_deadends else np.arange(n)

    signs: dict[tuple[int, int], int] = {}
    for u in sources:
        k = max(1, rng.poisson(avg_out_degree))
        targets = rng.integers(0, n, size=k)
        neg = rng.random(k) < neg_fraction
        for v, is_neg in zip(targets, neg):
            signs[(int(u), int(v))] = -1 if is_neg else 1

    edges = [SignedEdge(u, v, s) for (u, v), s in signs.items()]
    return build_graph(edges, n)


def planted_partition_graph(
    n: int = 40,
    avg_out_degree: float = 6.0,
    seed: int = 0,
) -> SignedDigraph:
    """Two equal camps: positive edges inside a camp, negative edges across.

    Every node sends edges into both camps, but receives from exactly one.
    That keeps the planted sign pattern free of crossing conflicts that no
    additive edge scorer (one built on concatenated endpoint embeddings) can
    satisfy, so a correct training loop can drive the sign error toward zero.
    """
    if n < 8 or n % 4:
        raise ValueError(f"need a node count divisible by 4 and at least 8, got {n}")
    rng = np.random.default_rng(seed)
    half = n // 2
    camp = np.zeros(n, dtype=np.int64)
    camp[half:] = 1
    # Receiving camp alternates inside each camp: half of every camp accepts
    # in-edges from camp 0, the other half from camp 1.
    recv = np.arange(n) % 2

    signs: dict[tuple[int, int], int] = {}
    for u in range(n):
        k = max(2, rng.poisson(avg_out_degree))
        for _ in range(k):
            same_camp = bool(rng.random() < 0.5)
            target_camp = camp[u] if same_camp else 1 - camp[u]
            pool = np.flatnonzero((camp == target_camp) & (recv == camp[u]))
            pool = pool[pool != u]
            v = int(rng.choice(pool))
            signs[(u, v)] = 1 if same_camp else -1

    edges = [SignedEdge(u, v, s) for (u, v), s in signs.items()]
    return build_graph(edges, n)
