"""Hierarchical counter-based random streams.

Every stochastic quantity in the simulator is drawn from a stream addressed
by a (seed, path) pair.  Distinct paths under the same seed give
statistically independent substreams, and the same (seed, path) always
reproduces the identical sample sequence, regardless of how many workers
run in parallel or in what order streams are consumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["StreamKey"]


@dataclass(frozen=True)
class StreamKey:
    """Address of one independent random substream.

    The path is an ordered tuple of nonnegative indices; callers append
    only the levels they need via :meth:`child`.  Under a FedAvg trial
    seed the paths are (domain[, round[, client]]) for initialisation,
    local training and the coherent reference, and (domain, round, chip,
    branch) for the paired-energy channel; validate-moments uses (point,
    chip, branch) under the run seed.
    """

    seed: int
    path: tuple[int, ...] = field(default_factory=tuple)

    def child(self, *indices: int) -> "StreamKey":
        """Extend the path, addressing an independent substream."""
        return StreamKey(self.seed, self.path + tuple(int(i) for i in indices))

    def generator(self) -> np.random.Generator:
        """Fresh generator for this stream (Philox, counter-based)."""
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=self.path)
        return np.random.Generator(np.random.Philox(ss))
