"""Stochastic physical-layer primitives.

Circularly symmetric complex Gaussian fading and receiver noise, the
two-point general fading law, and the detected energy |y|^2 of a
circularly symmetric Gaussian symbol.  Every sampler draws from the
generator it is given, so the caller decides which stream a quantity comes
from: the estimator builds one generator per (chip, branch) stream address
and draws all of its arrays from it in a fixed order.  Two generators built
from the same :class:`~reedsim.streams.StreamKey` give bit-identical draws.
Each call draws and returns one array of shape ``size``; powers broadcast
against it, so one call can give every client its own mean power.

The public samplers reject a negative or NaN power.  ``_sample_energy`` is
``sample_energy`` without that check, for callers whose mean energy is
>= 0 by construction: the paired-energy kernel in ``reedsim.estimator``,
whose means are sums of nonnegative parts scaled by an already checked
``ReedPhyConfig``.  Nothing else should call it.  It can also fill an
array the caller owns (``out``), so the kernel draws every (chip, branch)
stream into one reused (R, n) buffer instead of allocating one per stream.

The estimator draws no ``sample_dither`` phase: every fading law here
already carries an independent uniform phase.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "sample_fading",
    "sample_noise",
    "sample_energy",
    "sample_dither",
    "sample_general_fading",
]


def _complex_gaussian(rng: np.random.Generator, energy, size) -> np.ndarray:
    # E|x|^2 = energy; real and imaginary parts iid N(0, energy/2), drawn as
    # interleaved (re, im) pairs of one standard-normal array
    shape = (size,) if isinstance(size, (int, np.integer)) else tuple(size)
    unit = rng.standard_normal(shape + (2,)).view(np.complex128)
    return np.sqrt(np.asarray(energy) / 2.0) * unit[..., 0]


def _unit_phasor(phi: np.ndarray) -> np.ndarray:
    # e^{j phi}, filled from cos and sin: faster than a complex exp
    out = np.empty(np.shape(phi), dtype=np.complex128)
    np.cos(phi, out=out.real)
    np.sin(phi, out=out.imag)
    return out


def sample_fading(rng: np.random.Generator, mean_power, size):
    """Rayleigh fading coefficient h ~ CN(0, mean_power)."""
    # NaN fails every comparison, so these checks reject it too
    if not (np.asarray(mean_power) >= 0).all():
        raise ValueError(f"mean_power must be >= 0, got {mean_power}")
    return _complex_gaussian(rng, mean_power, size)


def sample_noise(rng: np.random.Generator, noise_var: float, size):
    """Receiver noise z ~ CN(0, noise_var)."""
    if not noise_var >= 0:
        raise ValueError(f"noise_var must be >= 0, got {noise_var}")
    return _complex_gaussian(rng, noise_var, size)


def sample_energy(rng: np.random.Generator, mean_energy, size):
    """Detected energy |y|^2 of y ~ CN(0, mean_energy): mean_energy times a
    standard exponential."""
    mean = np.asarray(mean_energy)
    if not (mean >= 0).all():
        raise ValueError(f"mean_energy must be >= 0, got {mean_energy}")
    return _sample_energy(rng, mean, size)


def _sample_energy(rng: np.random.Generator, mean_energy: np.ndarray, size=None, out=None):
    """``sample_energy`` without its check, for means >= 0 by construction.

    With ``out`` the standard exponentials are drawn into it and scaled in
    place, and ``out`` is returned: the same draws and the same products as
    a call with ``size = out.shape``, and no array is allocated.
    """
    if out is None:
        return mean_energy * rng.standard_exponential(size)
    rng.standard_exponential(out=out)
    out *= mean_energy
    return out


def sample_dither(rng: np.random.Generator, size):
    """Unit-modulus phase dither e^{j phi}, phi ~ Unif[0, 2 pi)."""
    return _unit_phasor(rng.uniform(0.0, 2.0 * np.pi, size))


def sample_general_fading(rng: np.random.Generator, mean_power, kappa: float, size):
    """Zero-mean proper fading with E|h|^2 = mean_power and fourth-moment
    ratio E|h|^4 / (E|h|^2)^2 = kappa.

    Realized as a uniform phase times a two-point energy law: |h|^2 equals
    kappa * mean_power with probability 1/kappa and 0 otherwise, which
    matches both target moments exactly for any kappa >= 1 (kappa = 1
    degenerates to constant modulus).  All phases are drawn before all
    on/off flags.
    """
    if not (np.asarray(mean_power) >= 0).all():
        raise ValueError(f"mean_power must be >= 0, got {mean_power}")
    if not kappa >= 1:
        raise ValueError(f"kappa must be >= 1, got {kappa}")
    phi = rng.uniform(0.0, 2.0 * np.pi, size)
    if kappa == 1.0:
        energy = np.full(np.shape(phi), mean_power)
    else:
        on = rng.random(size) < 1.0 / kappa
        energy = np.where(on, kappa * np.asarray(mean_power), 0.0)
    return np.sqrt(energy) * _unit_phasor(phi)
