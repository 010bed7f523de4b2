"""Derivation of independent random sub-streams from one run seed.

Every randomized component of a run draws from its own child seed so the
components stay individually reproducible. The spawn order is fixed:

    run seed   -> [split, svd, train]    (run_seeds)
    train seed -> [param init, m0 draws] (training.train)
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


def spawn_seeds(seed: int, count: int) -> list[int]:
    """Derive `count` independent child seeds from `seed`, in a fixed order."""
    children = np.random.SeedSequence(seed).spawn(count)
    return [int(child.generate_state(1)[0]) for child in children]


RunSeeds = NamedTuple("RunSeeds", [("split", int), ("svd", int), ("train", int)])


def run_seeds(seed: int) -> RunSeeds:
    """The split, svd and train child seeds of one run seed."""
    return RunSeeds(*spawn_seeds(seed, 3))
