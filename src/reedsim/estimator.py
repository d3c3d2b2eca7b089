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
are independent given the parts.  So the kernel draws the detected energy
|y|^2 directly, one exponential per (antenna, column).  Other fading laws
have no closed energy law and are superposed client by client; their
uniform fading phase makes a transmit phase dither redundant.

Both vector entry points run one kernel, ``_paired_energy``, which draws
chip m's branch b from the generator at [m][b] of the caller's (M, 2)
streams.  ``chip_streams(cfg, key)`` builds them, at ``key.generator(m,
b)``: ``sample_estimates`` once per call, and a FedAvg run once per
``reed`` arm, which every round then reads on from where the last one
stopped.  The superposition is ``_superposed_energy`` alone.  The kernel
runs it at every kappa but 2; the test suite runs it at kappa = 2 too, as
the kernel's reference in law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import _sample_energy, sample_fading, sample_general_fading, sample_noise
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
    # with_eta copies them
    n_chips: int = field(init=False, repr=False, compare=False)
    weight_sum: float = field(init=False, repr=False, compare=False)

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
                       cfg: ReedPhyConfig, n: int) -> np.ndarray:
    """Received energy of one (chip, branch) stream summed over antennas,
    superposed client by client; shape (n,).  Each block of w <= ``_BLOCK``
    columns draws noise (R, w), then fading (Ka, R, w) for the Ka clients
    whose part is nonzero somewhere in the row: Rayleigh at kappa = 2, the
    two-point law otherwise."""
    R = cfg.antennas
    active = part.any(axis=1)
    Ka = int(active.sum())
    powers = np.broadcast_to(cfg.mean_powers, (len(part),))[active]
    amps = np.broadcast_to(
        np.sqrt(cfg.eta * c * part[active]) / np.sqrt(powers)[:, None], (Ka, n))
    out = np.empty(n)
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
    """The (M, 2) streams of the paired-energy kernel on ``cfg``: chip m's
    branch b (0 positive, 1 negative) at ``key.generator(m, b)``."""
    return [(key.generator(m, 0), key.generator(m, 1)) for m in range(cfg.n_chips)]


def _paired_energy(pos: np.ndarray, neg: np.ndarray, cfg: ReedPhyConfig,
                   streams: list[tuple[np.random.Generator, ...]], n: int) -> np.ndarray:
    """The paired-energy pipeline: encode, fade, superpose, add noise and
    detect, for n independent columns at once.

    ``pos`` and ``neg`` are the nonnegative branch parts, shape (K, n), or
    (K, 1) when every column carries the same values.  Returns the
    normalized weighted energy difference, shape (n,).

    Stream layout: chip m and branch b (0 for the positive part, 1 for the
    negative) draw from the single generator ``streams[m][b]``, on from
    wherever its last draw stopped; ``chip_streams`` builds them.

    - kappa = 2: one (R, n) array of detected energies, exponential
      with mean eta * c_m * S_bj + noise_var, where S_bj is the branch's
      sum of parts in column j.  Each branch's column sums are taken once
      per call, not once per chip.  Every stream draws into one (R, n)
      buffer that the call owns; its antennas are summed into row 0 in
      place, and the positive branch is added to the returned total, the
      negative one subtracted.  So a call holds about (R + 1) * n doubles
      at its peak, plus, for (K, n) parts, the two branches' column sums
      and the means of the stream being drawn, 3n more.
    - otherwise ``_superposed_energy`` adds the clients' faded symbols.
    """
    total = np.zeros(n)
    rayleigh = cfg.kappa == 2.0
    if rayleigh:
        try:
            energy = np.empty((cfg.antennas, n))
        except MemoryError as exc:  # n fits in total, so R is what fails
            raise ValueError(f"antennas too large: {exc}") from None
        # each branch's column sums, taken once per call; the means are >= 0
        # by construction: the parts are >= 0, and eta, c and noise_var were
        # checked by ReedPhyConfig
        sums = (np.add.reduce(pos, 0), np.add.reduce(neg, 0))
        mean = np.empty_like(sums[0])
    for c, pair in zip(cfg.chip_weights, streams):
        for branch, (part, combine) in enumerate(((pos, np.add), (neg, np.subtract))):
            rng = pair[branch]
            if rayleigh:
                np.multiply(sums[branch], cfg.eta * c, out=mean)
                mean += cfg.noise_var
                _sample_energy(rng, mean, out=energy)
                # row by row, the order in which sum(axis=0) adds the rows
                for r in range(1, cfg.antennas):
                    energy[0] += energy[r]
                received = energy[0]
            else:
                received = _superposed_energy(rng, part, c, cfg, n)
            combine(total, received, out=total)
    total /= cfg.eta * cfg.weight_sum * cfg.antennas
    return total


def sample_estimates(inputs: ScalarInputs, cfg: ReedPhyConfig, key: StreamKey,
                     n_trials: int) -> np.ndarray:
    """Vectorized Monte Carlo: n_trials independent chip-diverse estimates
    of ``inputs.signed_sum``, one kernel column per trial, on the streams
    ``chip_streams(cfg, key)``."""
    return _paired_energy(inputs.pos[:, None], inputs.neg[:, None], cfg,
                          chip_streams(cfg, key), n_trials)


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
                   streams: list[tuple[np.random.Generator, ...]]) -> np.ndarray:
    """Noncoherent aggregation of client increments, coordinate-wise, drawn
    from the (M, 2) generators ``streams`` (``chip_streams``).

    Coordinate j uses scalar inputs u_{k,j} = [increment_k]_j / K so the
    estimate targets the ideal mean.  Coordinates are the kernel's
    columns, so the received energies are independent across coordinates,
    branches, chips and antennas.
    """
    arr = _increments(increments)
    if len(streams) != cfg.n_chips:
        raise ValueError(f"streams must hold one pair per chip, {cfg.n_chips}, "
                         f"got {len(streams)}")
    K, d = arr.shape
    u = arr / K
    return _paired_energy(np.maximum(u, 0.0), np.maximum(-u, 0.0), cfg, streams, d)


def aggregate_coherent_csit(increments: list[np.ndarray] | np.ndarray, cfg: ReedPhyConfig,
                            rng: np.random.Generator) -> np.ndarray:
    """Coherent channel-inversion reference: ideal mean plus Re(z)/sqrt(eta)
    with fresh receiver noise per coordinate, drawn from ``rng``.  Reads only
    ``cfg.eta`` and ``cfg.noise_var`` (``fedavg.AGGREGATORS``): radios equal
    in both are one run."""
    mean = aggregate_ideal(increments)
    if cfg.noise_var == 0:
        return mean
    z = sample_noise(rng, cfg.noise_var, size=mean.size)
    return mean + z.real / np.sqrt(cfg.eta)

