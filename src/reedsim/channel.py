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

The public samplers reject a negative or NaN power.  ``_signed_gamma``
serves the paired-energy kernel in ``reedsim.estimator``, which scales its
draws by means it builds itself, sums of nonnegative parts scaled by an
already checked ``ReedPhyConfig``.  Nothing else should call it.  It
draws the energy of k independent unit-mean looks, those of k chips and
antennas that share one mean: a Gamma(k) variate, exact in law.  k = 1 is
one exponential fill, 2 <= k <= 6 the Erlang product form, the log of a
product of k uniforms (Devroye, *Non-Uniform Random Variate Generation*,
1986, ch. IX), and larger k one ``standard_gamma`` fill (Marsaglia and
Tsang, *ACM TOMS* 26(3), 2000).  The product form leaves the log, which is
-Gamma(k), and says so by the sign it returns, so that the kernel folds
the negation into its scale instead of negating n values.  It allocates
nothing: it fills ``out`` and passes the product's factors through
``scratch``, both the kernel's ``estimator.kernel_buffers``, which each
FedAvg ``reed`` arm owns per run, each ``validate-moments`` worker per
call and each public estimator call per call.

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
    out = np.empty(size)
    rng.standard_exponential(out=out)
    out *= mean
    return out


# The largest k that _signed_gamma draws as a product of k uniforms; above
# it one standard_gamma(k) fill is faster.  At n = 50 000 on a 2-core x86
# VM (NumPy 2.4, SFC64), scaling by the mean included, the product took
# 374, 674 and 973 us at k = 2, 4 and 6, against 1098, 1074 and 1066 us for
# standard_gamma, and at k = 7 1121 us against 1069 us.  Each factor 1 - U
# is at least 2^-53, so a product of at most 6 is at least 2^-318: it can
# neither underflow nor reach log 0.
_MAX_PRODUCT_LOOKS = 6

# Values per block in which the product's further factors are drawn, so
# that a product holds one scratch of at most this many doubles (512 KB)
# beside its n-long output, whatever n and k are.  On the same VM a
# 1M-trial validate-moments run peaked at 68.3 MB RSS with exponentials
# only, 69.3-70.3 MB with blocked products, and 91-99 MB with one n-long
# scratch in place of the blocks, which wrote the same bytes.
_SCRATCH = 1 << 16


def _signed_gamma(rng: np.random.Generator, out: np.ndarray, looks: int,
                  scratch: np.ndarray) -> float:
    """Fill the C-contiguous ``out`` with Gamma(k) variates, k = ``looks``,
    times the sign it returns: for k = 1 a ``standard_exponential`` fill
    (+1), for 2 <= k <= ``_MAX_PRODUCT_LOOKS`` the log of the product of
    1 - U over k ``random`` fills of the whole array, taken in order (-1),
    whose further factors pass through ``scratch`` (at least min(out.size,
    ``_SCRATCH``) values), and above that one ``standard_gamma(k)`` fill
    (+1)."""
    if looks == 1:
        rng.standard_exponential(out=out)
    elif looks > _MAX_PRODUCT_LOOKS:
        rng.standard_gamma(looks, out=out)
    else:
        _log_product(rng, looks, out.reshape(-1), scratch)
        return -1.0
    return 1.0


def _log_product(rng: np.random.Generator, looks: int, out: np.ndarray,
                 scratch: np.ndarray) -> None:
    """Fill the 1-D ``out`` with the log of the product of 1 - U over
    ``looks`` ``random`` fills of its length, factor 2 on blockwise through
    the first min(out.size, ``_SCRATCH``) values of ``scratch``."""
    rng.random(out=out)
    np.subtract(1.0, out, out=out)
    for _ in range(looks - 1):
        for start in range(0, out.size, _SCRATCH):
            block = out[start:start + _SCRATCH]
            factor = scratch[:block.size]
            rng.random(out=factor)
            np.subtract(1.0, factor, out=factor)
            block *= factor
    np.log(out, out=out)


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
