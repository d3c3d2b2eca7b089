"""Paired-energy transmit/superpose/detect pipeline and vector aggregators.

A scalar is split into positive and negative parts, each part is
amplitude-encoded on its own resource element (normalized by the average
channel power), all clients superpose through independently sampled
fading, and the receiver subtracts the two received energies.  Chip
diversity repeats the pair over M independently faded chips; SIMO
reception repeats it over R receive antennas.

With Rayleigh fading (kappa = 2) the received symbol of one (chip, branch,
antenna, column) is y = sum_k h_k a_k + z ~ CN(0, eta * c_m * S + sigma^2),
where S is the branch's sum of parts in that column, and these symbols
are independent given the parts.  So a branch's energy over the g chips of
one weight and the R antennas is that mean times a Gamma(g R) variate,
which the kernel draws directly, one value per column (stream layout 6).
Other fading laws have no closed energy law and are superposed client by
client, chip by chip; their uniform fading phase makes a transmit phase
dither redundant.

Both vector entry points run one kernel, ``_paired_energy``, which draws
the chips of group i of ``ReedPhyConfig.chip_groups`` (at kappa = 2 the
chips of one weight, otherwise one chip) on branch b from the generator
at [i][b] of the caller's streams.  ``chip_streams(cfg, key)`` builds
them, at ``key.generator(m, b)`` for the group's first chip m:
``sample_estimates`` once per call, and a FedAvg run once per ``reed``
arm, which every round then reads on from where the last one stopped.
The kernel draws into n-long buffers its caller owns (``kernel_buffers``):
a FedAvg ``reed`` arm allocates one set per run, a ``validate-moments``
worker one set per call, which every point it takes draws into, and
either public entry point, called without them, one set per call, so
that no two results share memory.
The superposition is ``_superposed_energy`` alone.  The kernel runs it at
every kappa but 2; the test suite runs it at kappa = 2 too, chip by chip,
as the kernel's reference in law.  The coherent baseline takes the clients'
mean, which a FedAvg round forms once for all its arms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import (_SCRATCH, _sample_energy, sample_fading, sample_general_fading,
                      sample_noise)
from .streams import StreamKey

__all__ = [
    "ScalarInputs",
    "ReedPhyConfig",
    "chip_streams",
    "sample_estimates",
    "aggregate_ideal",
    "aggregate_reed",
    "aggregate_coherent_csit",
]

# columns superposed per block; bounds the (Ka, R, block) fading array
_BLOCK = 8192


@dataclass(frozen=True)
class ScalarInputs:
    """Per-coordinate client values and their positive/negative split."""

    values: np.ndarray

    def __init__(self, values):
        object.__setattr__(self, "values", np.asarray(values, dtype=float))
        if self.values.ndim != 1 or self.values.size < 1:
            raise ValueError("values must be a non-empty 1-D array")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("values must be finite")

    @property
    def pos(self) -> np.ndarray:
        return np.maximum(self.values, 0.0)

    @property
    def neg(self) -> np.ndarray:
        return np.maximum(-self.values, 0.0)

    @property
    def s_plus(self) -> float:
        return float(self.pos.sum())

    @property
    def s_minus(self) -> float:
        return float(self.neg.sum())

    @property
    def signed_sum(self) -> float:
        return float(self.values.sum())


@dataclass(frozen=True, eq=False)
class ReedPhyConfig:
    """Physical-layer configuration of the paired-energy aggregator; equal by value."""

    eta: float = 1.0
    noise_var: float = 0.0
    mean_powers: np.ndarray = field(default_factory=lambda: np.ones(1))
    chip_weights: np.ndarray = field(default_factory=lambda: np.ones(1))
    antennas: int = 1
    kappa: float = 2.0
    # set from chip_weights in __post_init__, so a read reduces nothing;
    # with_eta copies them.  chip_groups are the chips that one pair of
    # streams draws, as (first chip, weight, count) in the order of their
    # first chips: at kappa = 2 all chips of one weight, whose energies sum
    # to one Gamma draw, and otherwise each chip alone
    n_chips: int = field(init=False, repr=False, compare=False)
    weight_sum: float = field(init=False, repr=False, compare=False)
    chip_groups: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "mean_powers", np.asarray(self.mean_powers, dtype=float))
        object.__setattr__(self, "chip_weights", np.asarray(self.chip_weights, dtype=float))
        for name in ("eta", "noise_var", "kappa"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.eta <= 0:
            raise ValueError(f"eta must be > 0, got {self.eta}")
        if self.noise_var < 0:
            raise ValueError(f"noise_var must be >= 0, got {self.noise_var}")
        # a comparison with NaN is false, so these also reject NaN
        mu2, c = self.mean_powers, self.chip_weights
        if not ((mu2 > 0) & (mu2 < np.inf)).all():
            raise ValueError("mean_powers must be finite and > 0")
        if not ((c >= 0) & (c < np.inf)).all() or c.sum() <= 0:
            raise ValueError("chip_weights must be finite and >= 0 with positive sum")
        if self.antennas < 1:
            raise ValueError(f"antennas must be >= 1, got {self.antennas}")
        if self.kappa < 1:
            raise ValueError(f"kappa must be >= 1, got {self.kappa}")
        object.__setattr__(self, "n_chips", int(c.size))
        object.__setattr__(self, "weight_sum", float(c.sum()))
        groups = {}
        for m, w in enumerate(c.ravel().tolist()):
            groups.setdefault(w if self.kappa == 2.0 else m, [m, w, 0])[2] += 1
        object.__setattr__(self, "chip_groups", tuple(map(tuple, groups.values())))

    def _value(self) -> tuple:
        return (self.eta, self.noise_var, self.antennas, self.kappa, self.mean_powers.shape,
                *self.mean_powers.flat, self.chip_weights.shape, *self.chip_weights.flat)

    def __eq__(self, other):
        return isinstance(other, ReedPhyConfig) and self._value() == other._value()

    def __hash__(self):
        return hash(self._value())

    def with_eta(self, eta: float) -> "ReedPhyConfig":
        """This configuration with gain ``eta``.  Checks only ``eta``: the
        other fields were checked when this configuration was built."""
        if not 0 < eta < math.inf:  # NaN fails the comparison too
            raise ValueError(f"eta must be finite and > 0, got {eta}")
        # a copy without __init__, which would check every field again
        out = object.__new__(type(self))
        out.__dict__.update(vars(self), eta=eta)
        return out


def _superposed_energy(rng: np.random.Generator, part: np.ndarray, c: float,
                       cfg: ReedPhyConfig, out: np.ndarray) -> np.ndarray:
    """Received energy of one (chip, branch) stream summed over antennas,
    superposed client by client into the n-long ``out``, which is returned.
    Each block of w <= ``_BLOCK`` columns draws noise (R, w), then fading
    (Ka, R, w) for the Ka clients whose part is nonzero somewhere in the
    row: Rayleigh at kappa = 2, the two-point law otherwise."""
    R, n = cfg.antennas, len(out)
    active = part.any(axis=1)
    Ka = int(active.sum())
    powers = np.broadcast_to(cfg.mean_powers, (len(part),))[active]
    amps = np.broadcast_to(
        np.sqrt(cfg.eta * c * part[active]) / np.sqrt(powers)[:, None], (Ka, n))
    for start in range(0, n, _BLOCK):
        cols = slice(start, min(start + _BLOCK, n))
        w = cols.stop - start
        size = (Ka, R, w)
        try:
            z = sample_noise(rng, cfg.noise_var, (R, w))
            h = (sample_fading(rng, powers[:, None, None], size) if cfg.kappa == 2.0 else
                 sample_general_fading(rng, powers[:, None, None], cfg.kappa, size))
        except MemoryError as exc:  # w and Ka are bounded, so R is what fails
            raise ValueError(f"antennas too large: {exc}") from None
        y = (h * amps[:, None, cols]).sum(axis=0) + z
        out[cols] = (y.real**2 + y.imag**2).sum(axis=0)
    return out


def chip_streams(cfg: ReedPhyConfig, key: StreamKey) -> list[tuple[np.random.Generator, ...]]:
    """The streams of the paired-energy kernel on ``cfg``, one pair per
    chip group (``cfg.chip_groups``): branch b (0 positive, 1 negative) of
    the group whose first chip is m at ``key.generator(m, b)``."""
    return [(key.generator(m, 0), key.generator(m, 1)) for m, _, _ in cfg.chip_groups]


def kernel_buffers(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Uninitialized buffers for ``_paired_energy`` over n columns, to pass
    as its ``buffers``: the n-long total, the n-long branch energy and the
    product scratch of min(n, ``channel._SCRATCH``) values."""
    return np.empty(n), np.empty(n), np.empty(min(n, _SCRATCH))


def _paired_energy(pos: np.ndarray, neg: np.ndarray, cfg: ReedPhyConfig,
                   streams: list[tuple[np.random.Generator, ...]],
                   buffers: tuple[np.ndarray, ...]) -> np.ndarray:
    """The paired-energy pipeline: encode, fade, superpose, add noise and
    detect, for n independent columns at once, into ``buffers``
    (``kernel_buffers(n)``), which the caller owns and n is read from.

    ``pos`` and ``neg`` are the nonnegative branch parts, shape (K, n), or
    (K, 1) when every column carries the same values.  Returns the
    normalized weighted energy difference, shape (n,): the total,
    ``buffers[0]``, zeroed first.

    Stream layout 6: the chips of group i of ``cfg.chip_groups`` on branch
    b (0 for the positive part, 1 for the negative) draw from the single
    generator ``streams[i][b]``, on from wherever its last draw stopped;
    ``chip_streams`` builds them.

    - kappa = 2: a group of g chips of weight c draws one detected energy
      per column, summed over its chips and the R antennas: the mean
      eta * c * S_bj + noise_var, where S_bj is the branch's sum of parts
      in column j, times a Gamma(g R) variate (``_sample_energy``).  Each
      branch's column sums are taken once per call, not once per group.
    - otherwise ``_superposed_energy`` adds the clients' faded symbols.

    Every stream draws into the branch energy, ``buffers[1]`` (a Gamma
    product through the scratch, ``buffers[2]``), which is added to the
    total for the positive branch and subtracted for the negative.  A call
    allocates no n-long array for (K, 1) parts; for (K, n) parts, the
    column sums and a stream's means at kappa = 2, 3n, else the amplitudes.
    """
    total, energy, scratch = buffers
    total.fill(0.0)
    rayleigh = cfg.kappa == 2.0
    if rayleigh:
        # each branch's column sums, taken once per call; the means are >= 0
        # by construction: the parts are >= 0, and eta, c and noise_var were
        # checked by ReedPhyConfig
        sums = (np.add.reduce(pos, 0), np.add.reduce(neg, 0))
        mean = np.empty_like(sums[0])
    for (_, c, count), pair in zip(cfg.chip_groups, streams):
        for branch, (part, combine) in enumerate(((pos, np.add), (neg, np.subtract))):
            rng = pair[branch]
            if rayleigh:
                np.multiply(sums[branch], cfg.eta * c, out=mean)
                mean += cfg.noise_var
                _sample_energy(rng, mean, energy, count * cfg.antennas, scratch)
            else:
                _superposed_energy(rng, part, c, cfg, energy)
            combine(total, energy, out=total)
    total /= cfg.eta * cfg.weight_sum * cfg.antennas
    return total


def sample_estimates(inputs: ScalarInputs, cfg: ReedPhyConfig, key: StreamKey,
                     n_trials: int, buffers: tuple[np.ndarray, ...] | None = None) -> np.ndarray:
    """Vectorized Monte Carlo: n_trials independent chip-diverse estimates
    of ``inputs.signed_sum``, one kernel column per trial, on the streams
    ``chip_streams(cfg, key)``.  The kernel draws into ``buffers``
    (``kernel_buffers(n_trials)``) and returns the first, or into a new set
    if none are passed."""
    return _paired_energy(inputs.pos[:, None], inputs.neg[:, None], cfg,
                          chip_streams(cfg, key), buffers or kernel_buffers(n_trials))


def _increments(increments: list[np.ndarray] | np.ndarray) -> np.ndarray:
    """Client increments as a float (K, d) array; K and d come from its shape."""
    arr = np.asarray(increments, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"increments must be a (K, d) array, got shape {arr.shape}")
    return arr


def aggregate_ideal(increments: list[np.ndarray] | np.ndarray) -> np.ndarray:
    """Coordinate-wise arithmetic mean of (K, d) client increments."""
    arr = _increments(increments)
    # what arr.mean(axis=0) computes, without its wrapper
    return np.add.reduce(arr, 0) / len(arr)


def aggregate_reed(increments: list[np.ndarray] | np.ndarray, cfg: ReedPhyConfig,
                   streams: list[tuple[np.random.Generator, ...]],
                   buffers: tuple[np.ndarray, ...] | None = None) -> np.ndarray:
    """Noncoherent aggregation of client increments, coordinate-wise, drawn
    from the generator pairs ``streams``, one per chip group (``chip_streams``),
    into ``buffers`` (``kernel_buffers(d)``), whose first is returned, or
    into a new set if none are passed.

    Coordinate j uses scalar inputs u_{k,j} = [increment_k]_j / K so the
    estimate targets the ideal mean.  Coordinates are the kernel's
    columns, so the received energies are independent across coordinates,
    branches, chips and antennas.
    """
    arr = _increments(increments)
    if len(streams) != len(cfg.chip_groups):
        raise ValueError(f"streams must hold one pair per chip group, {len(cfg.chip_groups)}, "
                         f"got {len(streams)}")
    K, d = arr.shape
    u = arr / K
    return _paired_energy(np.maximum(u, 0.0), np.maximum(-u, 0.0), cfg, streams,
                          buffers or kernel_buffers(d))


def aggregate_coherent_csit(mean: np.ndarray, cfg: ReedPhyConfig,
                            rng: np.random.Generator) -> np.ndarray:
    """Coherent channel-inversion reference: the clients' mean increment, a
    (d,) float array as :func:`aggregate_ideal` returns it, plus
    Re(z)/sqrt(eta) with fresh receiver noise per coordinate, drawn from
    ``rng``.  Reads only ``cfg.eta`` and ``cfg.noise_var``
    (``fedavg.AGGREGATORS``): radios equal in both are one run."""
    if cfg.noise_var == 0:
        return mean
    z = sample_noise(rng, cfg.noise_var, size=mean.size)
    return mean + z.real / np.sqrt(cfg.eta)

