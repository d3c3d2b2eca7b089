"""Paired-energy transmit/superpose/detect pipeline and vector aggregators.

A scalar is split into positive and negative parts, each part is
amplitude-encoded on its own resource element (normalized by the average
channel power, with a random phase dither), all clients superpose through
independently sampled fading, and the receiver subtracts the two received
energies.  Chip diversity repeats the pair over M independently faded
chips; SIMO reception repeats it over R receive antennas.

Both vector entry points run one kernel, ``_paired_energy``, which adds
two stream levels, (chip, branch), below the caller's key.
``PairedEnergies`` and the functions around it are a per-client scalar
reference that reads the same draws.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import sample_dither, sample_fading, sample_general_fading, sample_noise
from .streams import StreamKey

__all__ = [
    "ScalarInputs",
    "ReedPhyConfig",
    "PairedEnergies",
    "encode_branch_symbol",
    "simulate_paired_observation",
    "sample_estimates",
    "reed_estimate_single",
    "reed_estimate_chip",
    "aggregate_ideal",
    "aggregate_reed",
    "aggregate_coherent_csit",
]

# branch indices inside stream paths
_PLUS, _MINUS = 0, 1
# columns drawn per block; bounds the (Ka, R, block) fading array
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


@dataclass(frozen=True)
class ReedPhyConfig:
    """Physical-layer configuration of the paired-energy aggregator."""

    eta: float = 1.0
    noise_var: float = 0.0
    mean_powers: np.ndarray = field(default_factory=lambda: np.ones(1))
    chip_weights: np.ndarray = field(default_factory=lambda: np.ones(1))
    antennas: int = 1
    kappa: float = 2.0
    ideal_channel: bool = False  # deterministic test mode, see _paired_energy

    def __post_init__(self):
        object.__setattr__(self, "mean_powers", np.asarray(self.mean_powers, dtype=float))
        object.__setattr__(self, "chip_weights", np.asarray(self.chip_weights, dtype=float))
        if self.eta <= 0:
            raise ValueError(f"eta must be > 0, got {self.eta}")
        if self.noise_var < 0:
            raise ValueError(f"noise_var must be >= 0, got {self.noise_var}")
        if np.any(self.mean_powers <= 0):
            raise ValueError("mean_powers must be > 0")
        if self.n_chips < 1:
            raise ValueError("n_chips must be >= 1")
        if np.any(self.chip_weights < 0) or self.chip_weights.sum() <= 0:
            raise ValueError("chip_weights must be >= 0 with positive sum")
        if self.antennas < 1:
            raise ValueError(f"antennas must be >= 1, got {self.antennas}")
        if self.kappa < 1:
            raise ValueError(f"kappa must be >= 1, got {self.kappa}")

    @property
    def n_chips(self) -> int:
        return int(self.chip_weights.size)

    @property
    def weight_sum(self) -> float:
        return float(self.chip_weights.sum())


@dataclass(frozen=True)
class PairedEnergies:
    """Received energies of one positive/negative resource-element pair."""

    e_plus: float
    e_minus: float
    chip_index: int = 0
    antenna_index: int = 0

    def __post_init__(self):
        if self.e_plus < 0 or self.e_minus < 0:
            raise ValueError("energies must be nonnegative")


def encode_branch_symbol(u: float, branch: str, chip_weight: float, eta: float,
                         mean_power: float, dither: complex) -> complex:
    """Transmit symbol sqrt(eta * c * [u]_branch) / mu * dither."""
    if eta <= 0:
        raise ValueError(f"eta must be > 0, got {eta}")
    if mean_power <= 0:
        raise ValueError(f"mean_power must be > 0, got {mean_power}")
    if chip_weight < 0:
        raise ValueError(f"chip_weight must be >= 0, got {chip_weight}")
    if branch == "plus":
        part = max(u, 0.0)
    elif branch == "minus":
        part = max(-u, 0.0)
    else:
        raise ValueError(f"branch must be 'plus' or 'minus', got {branch!r}")
    return np.sqrt(eta * chip_weight * part) / np.sqrt(mean_power) * dither


def _fading(rng: np.random.Generator, mean_power, kappa: float, size=None):
    if kappa == 2.0:
        return sample_fading(rng, mean_power, size)
    return sample_general_fading(rng, mean_power, kappa, size)


def _paired_energy(pos: np.ndarray, neg: np.ndarray, cfg: ReedPhyConfig,
                   key: StreamKey, n: int) -> np.ndarray:
    """The paired-energy pipeline: encode, fade, superpose, add noise and
    detect, for n independent columns at once.

    ``pos`` and ``neg`` are the nonnegative branch parts, shape (K, n), or
    (K, 1) when every column carries the same values.  Returns the
    normalized weighted energy difference, shape (n,).

    Stream layout: chip m and branch b draw from the single stream
    ``key.child(m, b)``.  Columns are drawn in blocks of ``_BLOCK``; each
    block of width w draws noise (R, w), then dithers (Ka, w), then fading
    (Ka, R, w).  Ka counts the clients whose part is nonzero somewhere in
    the row, so a silent client draws nothing.  The dither is common to
    all receive antennas because the transmitted symbol is.

    In ideal-channel test mode only the noise is drawn: fading is pinned
    at its root-mean power with zero phase, dithers are 1 and the branch
    energies add with no cross terms, e = eta * c * S + |z|^2, so with
    zero noise the output equals aggregate_ideal exactly.
    """
    K = pos.shape[0]
    R = cfg.antennas
    mu2 = np.broadcast_to(cfg.mean_powers, (K,))
    total = np.zeros(n)
    for m, c in enumerate(cfg.chip_weights):
        for branch, sign, part in ((_PLUS, 1.0, pos), (_MINUS, -1.0, neg)):
            rng = key.child(m, branch).generator()
            if cfg.ideal_channel:
                signal = np.broadcast_to(cfg.eta * c * part.sum(axis=0), (n,))
            else:
                active = part.any(axis=1)
                Ka = int(active.sum())
                powers = mu2[active]
                amps = np.broadcast_to(
                    np.sqrt(cfg.eta * c * part[active]) / np.sqrt(powers)[:, None], (Ka, n))
            for start in range(0, n, _BLOCK):
                cols = slice(start, min(start + _BLOCK, n))
                w = cols.stop - start
                z = sample_noise(rng, cfg.noise_var, (R, w))
                if cfg.ideal_channel:
                    energy = signal[cols] + (z.real**2 + z.imag**2)
                else:
                    a = amps[:, cols] * sample_dither(rng, (Ka, w))
                    h = _fading(rng, powers[:, None, None], cfg.kappa, (Ka, R, w))
                    y = (h * a[:, None, :]).sum(axis=0) + z
                    energy = y.real**2 + y.imag**2
                total[cols] += sign * energy.sum(axis=0)
    return total / (cfg.eta * cfg.weight_sum * R)


def simulate_paired_observation(inputs: ScalarInputs, cfg: ReedPhyConfig,
                                key: StreamKey, chip: int, antenna: int) -> PairedEnergies:
    """Scalar reference of the paired-energy kernel: one positive/negative
    pair at one (chip, antenna), superposed client by client.

    It reads the kernel's draws at n = 1 from the (chip, branch) stream:
    noise for every antenna, one dither per active client, then fading for
    every (active client, antenna), and keeps this antenna's share.  The
    ideal-channel test mode has no scalar reference.
    """
    if cfg.ideal_channel:
        raise ValueError("ideal_channel has no scalar reference; use aggregate_reed")
    if not 0 <= chip < cfg.n_chips:
        raise ValueError(f"chip index {chip} out of range [0, {cfg.n_chips})")
    if not 0 <= antenna < cfg.antennas:
        raise ValueError(f"antenna index {antenna} out of range [0, {cfg.antennas})")
    R = cfg.antennas
    c = float(cfg.chip_weights[chip])
    energies = []
    for branch_idx, branch, part in ((_PLUS, "plus", inputs.pos), (_MINUS, "minus", inputs.neg)):
        active = np.flatnonzero(part > 0)
        powers = np.broadcast_to(cfg.mean_powers, part.shape)[active]
        rng = key.child(chip, branch_idx).generator()
        z = sample_noise(rng, cfg.noise_var, (R, 1))[antenna, 0]
        dithers = sample_dither(rng, (len(active), 1))[:, 0]
        h = _fading(rng, powers[:, None, None], cfg.kappa, (len(active), R, 1))[:, antenna, 0]
        y = 0.0 + 0.0j
        for i, k in enumerate(active):
            y += h[i] * encode_branch_symbol(float(inputs.values[k]), branch, c,
                                             cfg.eta, powers[i], dithers[i])
        energies.append(abs(y + z) ** 2)
    return PairedEnergies(e_plus=energies[0], e_minus=energies[1],
                          chip_index=chip, antenna_index=antenna)


def reed_estimate_single(obs: PairedEnergies, eta: float) -> float:
    """Single-shot signed estimate (e_plus - e_minus) / eta, unclipped."""
    if eta <= 0:
        raise ValueError(f"eta must be > 0, got {eta}")
    return (obs.e_plus - obs.e_minus) / eta


def reed_estimate_chip(observations: list[PairedEnergies], cfg: ReedPhyConfig) -> float:
    """Chip/antenna-diverse estimate: normalized sum of energy differences.

    The observations must cover every (chip, antenna) pair exactly once;
    with R antennas the normalizer is eta * C_M * R.
    """
    seen = {(o.chip_index, o.antenna_index) for o in observations}
    want = {(m, r) for m in range(cfg.n_chips) for r in range(cfg.antennas)}
    if len(seen) != len(observations) or seen != want:
        raise ValueError("observations must cover each (chip, antenna) pair exactly once")
    total = sum(o.e_plus - o.e_minus for o in observations)
    return total / (cfg.eta * cfg.weight_sum * cfg.antennas)


def sample_estimates(inputs: ScalarInputs, cfg: ReedPhyConfig, key: StreamKey,
                     n_trials: int) -> np.ndarray:
    """Vectorized Monte Carlo: n_trials independent chip-diverse estimates
    of ``inputs.signed_sum``, one kernel column per trial."""
    return _paired_energy(inputs.pos[:, None], inputs.neg[:, None], cfg, key, n_trials)


def aggregate_ideal(increments: list[np.ndarray] | np.ndarray, dim: int) -> np.ndarray:
    """Coordinate-wise arithmetic mean of client increments."""
    arr = np.asarray(increments, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise ValueError(f"increments must be (K, {dim}), got shape {arr.shape}")
    return arr.mean(axis=0)


def aggregate_reed(increments: list[np.ndarray] | np.ndarray, cfg: ReedPhyConfig,
                   key: StreamKey) -> np.ndarray:
    """Noncoherent aggregation of client increments, coordinate-wise.

    Coordinate j uses scalar inputs u_{k,j} = [increment_k]_j / K so the
    estimate targets the ideal mean.  Coordinates are the kernel's
    columns, so fading, dithers and noise are independent across
    coordinates, clients, branches, chips and antennas.  In ideal-channel
    test mode with zero noise the output equals aggregate_ideal.
    """
    arr = np.asarray(increments, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"increments must be a (K, d) array, got shape {arr.shape}")
    K, d = arr.shape
    u = arr / K
    return _paired_energy(np.maximum(u, 0.0), np.maximum(-u, 0.0), cfg, key, d)


def aggregate_coherent_csit(increments: list[np.ndarray] | np.ndarray, eta: float,
                            noise_var: float, key: StreamKey) -> np.ndarray:
    """Coherent channel-inversion reference: ideal mean plus Re(z)/sqrt(eta)
    with fresh receiver noise per coordinate."""
    if eta <= 0:
        raise ValueError(f"eta must be > 0, got {eta}")
    if noise_var < 0:
        raise ValueError(f"noise_var must be >= 0, got {noise_var}")
    arr = np.asarray(increments, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"increments must be a (K, d) array, got shape {arr.shape}")
    mean = arr.mean(axis=0)
    if noise_var == 0:
        return mean
    z = sample_noise(key.generator(), noise_var, size=arr.shape[1])
    return mean + z.real / np.sqrt(eta)
