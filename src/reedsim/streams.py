"""Hierarchical seeded random streams.

Every stochastic quantity in the simulator is drawn from a stream addressed
by a (seed, path) pair.  Distinct paths under the same seed give
statistically independent substreams, and the same (seed, path) always
reproduces the identical sample sequence, regardless of how many workers
run in parallel or in what order streams are consumed.

A stream is an SFC64 generator, NumPy's fastest bit generator, so it is
fixed by its three 64-bit seed words, which ``SeedSequence(seed,
spawn_key=path)`` derives.  :meth:`StreamKey.grid` derives the seed words
of a whole block of child paths in one NumPy pass that replays
SeedSequence's hash, instead of building one SeedSequence per stream.  Its
words are the same as SeedSequence's, bit for bit (``tests/test_streams.py``
checks this, and the first draws of every leaf, over seeds and paths that
take one or several 32-bit words), so a grid changes no draw.

``key.generator(*index)`` is ``key.child(*index).generator()`` without
the child key: a caller that builds one generator per (chip, branch) or
per client names the leaf by its index, and on a grid node SFC64 is
seeded straight from that leaf's row of the grid's words.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["StreamKey"]

# SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _words(value: int) -> int:
    """The uint32 words SeedSequence splits a nonnegative integer into."""
    return max(1, -(-value.bit_length() // 32))


def _hash_steps(const: int, mult: int, steps: int) -> tuple[np.ndarray, np.ndarray, int]:
    """``steps`` successive hash constants before and after each multiply,
    as uint32 arrays, and the constant that follows them."""
    seq = [const]
    for _ in range(steps):
        seq.append(seq[-1] * mult & 0xFFFFFFFF)
    return np.array(seq[:-1], np.uint32), np.array(seq[1:], np.uint32), seq[-1]


@functools.cache
def _leaf_generator():
    """The function that builds a leaf's generator from its stored seed
    words.  Defined on first use, so importing this module does not load
    ``numpy.random``."""
    from numpy.random import SFC64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class FixedKey(ISeedSequence):
        """A seed sequence that hands SFC64 stored seed words."""

        def __init__(self, key: np.ndarray):
            self.key = key

        def generate_state(self, n_words, dtype=np.uint32):
            # SFC64 asks for np.uint64 itself, so the identity test decides
            if n_words != 3 or dtype is not np.uint64 and np.dtype(dtype) != np.uint64:
                raise ValueError("a fixed key seeds only SFC64's three words")
            # SFC64 reads the words from the raw buffer, ignoring strides; a
            # grid keeps each leaf's words contiguous
            return self.key

    return lambda words: Generator(SFC64(FixedKey(words)))


@dataclass(frozen=True)
class StreamKey:
    """Address of one independent random substream.

    The path is an ordered tuple of nonnegative indices; callers append
    only the levels they need via :meth:`child`.  Under a FedAvg trial
    seed the paths are (domain[, round[, client]]) for initialisation,
    local training and the coherent reference, and (domain, round, chip,
    branch) for the paired-energy channel; validate-moments uses (point,
    chip, branch) under the run seed.

    ``keys`` is set only on the nodes of a :meth:`grid`: the SFC64 seed
    words of the node's grid below it, a C-contiguous array of shape
    (..., 3), or one leaf's words, shape (3,).  It takes no part in ``==``
    or the hash.

    :meth:`generator` takes the index of a child, so the stream of a leaf
    is drawn from without building the leaf's key.
    """

    seed: int
    path: tuple[int, ...] = field(default_factory=tuple)
    keys: np.ndarray | None = field(default=None, compare=False, repr=False)

    def child(self, *indices: int) -> "StreamKey":
        """Extend the path, addressing an independent substream.

        On a grid node, a child inside the grid keeps its keys; any other
        child is a plain key of the same stream.
        """
        return StreamKey(self.seed, *self._descend(indices))

    def _descend(self, indices) -> tuple[tuple[int, ...], np.ndarray | None]:
        """The path and the grid keys of ``child(*indices)``."""
        indices = tuple(map(int, indices))
        keys = self.keys
        # NumPy would wrap a negative index, and rejects one past the end
        if keys is not None and len(indices) < keys.ndim and (not indices or min(indices) >= 0):
            try:
                return self.path + indices, keys[indices]
            except IndexError:
                pass
        return self.path + indices, None

    def grid(self, *shape: int) -> "StreamKey":
        """This stream as a grid node: every child ``child(*i)`` with
        ``i < shape`` carries its SFC64 seed words, computed here for all
        of them at once.

        Replays ``SeedSequence(seed, spawn_key=path + i).generate_state(3,
        uint64)``: start from the pool that mixed the seed (padded to the
        pool's 4 words) and the path, mix each index word into all 4 pool
        words, then apply the output hash to the pool words 0, 1, 2, 3, 0, 1
        to give six 32-bit output words.
        """
        pool = np.random.SeedSequence(self.seed, spawn_key=self.path).pool
        # the first 4 words take 16 hashmix steps, each further word 4
        mixed = max(4, _words(self.seed)) + sum(_words(i) for i in self.path)
        const = _INIT_A * pow(_MULT_A, 4 * mixed, 1 << 32) & 0xFFFFFFFF
        index = np.indices(shape, dtype=np.uint32).reshape(len(shape), math.prod(shape))
        mixer = np.broadcast_to(pool, (index.shape[1], 4))
        for word in index:
            before, after, const = _hash_steps(const, _MULT_A, 4)
            h = (word[:, None] ^ before) * after
            h ^= h >> 16
            mixer = _MIX_L * mixer - _MIX_R * h
            mixer ^= mixer >> 16
        before, after, _ = _hash_steps(_INIT_B, _MULT_B, 6)
        out = (mixer[:, [0, 1, 2, 3, 0, 1]] ^ before) * after
        out ^= out >> 16
        out = out.astype(np.uint64)
        # in C order, so that every leaf's three words are contiguous
        keys = np.ascontiguousarray(out[:, 0::2] | out[:, 1::2] << 32)
        return StreamKey(self.seed, self.path, keys.reshape(*shape, 3))

    def generator(self, *index: int) -> np.random.Generator:
        """Fresh generator for this stream (SFC64), or, given an index, for
        the stream ``child(*index)``, draw for draw and error for error.

        With an index no child key is built: on a grid node, an index that
        reaches a leaf seeds SFC64 from the leaf's row of the grid's keys.
        """
        path, keys = self._descend(index) if index else (self.path, self.keys)
        if keys is None:
            seed = np.random.SeedSequence(entropy=self.seed, spawn_key=path)
            return np.random.Generator(np.random.SFC64(seed))
        if keys.shape != (3,):
            raise ValueError(f"stream {path} is a grid node, not a leaf; "
                             "address a leaf with child() or generator(*index)")
        return _leaf_generator()(keys)
