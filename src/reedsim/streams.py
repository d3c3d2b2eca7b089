"""Hierarchical seeded random streams.

Every stochastic quantity in the simulator is drawn from a stream addressed
by a (seed, path) pair.  Distinct paths under the same seed give
statistically independent substreams, and the same (seed, path) always
reproduces the identical sample sequence, regardless of how many workers
run in parallel or in what order streams are consumed.

A stream is an SFC64 generator, NumPy's fastest bit generator, seeded by
``SeedSequence(seed, spawn_key=path)``.  A caller builds each stream once
and reads it in sequence (since stream layout 5; layout 6 is the
current one): a FedAvg run builds all of its streams before round 0, and
each round draws the next values from them, so the number of streams a
run builds does not grow with its rounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["StreamKey"]


@dataclass(frozen=True)
class StreamKey:
    """Address of one independent random substream.

    The path is an ordered tuple of nonnegative indices; callers append
    only the levels they need via :meth:`child`.  The paths in use:

    - under a FedAvg trial seed: (0,) the model's initialisation, (1, k)
      client k's minibatches, (1, K) the MLP's proxy rows, (2,) a
      ``coherent_csit`` arm's receiver noise, (2, m, b) branch b of the
      chip group of a ``reed`` arm whose first chip is m (under Rayleigh
      fading the chips of one weight, otherwise chip m alone), and (3,)
      the partition's seed;
    - the root path () of the trial seed draws the synthetic data or the
      quadratic's curvatures, and that of a partition's seed its split;
    - validate-moments draws branch b of point p's chip group m from
      (p, m, b) under the run seed.

    :meth:`generator` takes the index of a child, so the stream of a leaf
    is built without building the leaf's key.
    """

    seed: int
    path: tuple[int, ...] = ()

    def child(self, *indices: int) -> "StreamKey":
        """Extend the path, addressing an independent substream."""
        return StreamKey(self.seed, self.path + tuple(map(int, indices)))

    def generator(self, *index: int) -> np.random.Generator:
        """Fresh generator for this stream (SFC64), or, given an index, for
        the stream ``child(*index)``, draw for draw and error for error."""
        seed = np.random.SeedSequence(self.seed, spawn_key=self.path + tuple(map(int, index)))
        return np.random.Generator(np.random.SFC64(seed))
