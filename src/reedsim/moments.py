"""Closed-form moment laws and convergence-side evaluators.

These are the deterministic oracles the Monte Carlo pipeline is checked
against.  ``variance_chip`` is the one exact mean/variance law of the
paired-energy estimator, split into self-noise, signal-noise and receiver
noise, for any chip weights, antenna count and fading fourth-moment ratio
kappa; the single-shot Rayleigh estimator is its one-chip, one-antenna,
kappa = 2 case.  The aggregation-error second-moment bound reads the same
coefficients.  The energy-feasible gain schedule and the stationarity
bound complete the module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimator import ReedPhyConfig, ScalarInputs, _increments

__all__ = [
    "MomentReport",
    "ConvergenceConstants",
    "variance_chip",
    "sigma_air_bound",
    "eta_schedule",
    "energy_audit",
    "theorem_bound_rhs",
]


@dataclass(frozen=True)
class MomentReport:
    """Mean, variance and its three-way decomposition.

    variance == self_noise + signal_noise + receiver_noise by
    construction: the variance field is the exact sum of the components.
    """

    mean: float
    self_noise: float
    signal_noise: float
    receiver_noise: float

    @property
    def variance(self) -> float:
        return self.self_noise + self.signal_noise + self.receiver_noise


@dataclass(frozen=True)
class ConvergenceConstants:
    """Problem constants entering the stationarity bound."""

    L: float
    G: float
    sigma_g_sq: float
    F0_minus_Fstar: float

    def __post_init__(self):
        _check(L=self.L, G=self.G)
        _check(strict=False, sigma_g_sq=self.sigma_g_sq, F0_minus_Fstar=self.F0_minus_Fstar)


def _check(strict: bool = True, **values) -> None:
    """Reject a value, or an array with an entry, that is not finite and > 0
    (>= 0 unless ``strict``), naming it first; NaN fails every comparison."""
    for name, x in values.items():
        lo, hi = (x.min(), x.max()) if isinstance(x, np.ndarray) else (x, x)
        if not (0 < lo if strict else 0 <= lo) or not hi < np.inf:
            raise ValueError(f"{name} must be finite and >{'' if strict else '='} 0, got {x}")


def _coefficients(cfg: ReedPhyConfig) -> tuple[float, float, float]:
    """The variance law's three coefficients, with C = C_M * R:
    self-noise R sum(c_m^2) / C^2, signal-noise 2 sigma_z^2 / (eta C) and
    receiver noise 2 M R sigma_z^4 / (eta C)^2."""
    R = cfg.antennas
    C = cfg.weight_sum * R
    return (float(np.sum(cfg.chip_weights**2)) * R / C**2,
            2.0 * cfg.noise_var / (cfg.eta * C),
            2.0 * (cfg.n_chips * R) * cfg.noise_var**2 / (cfg.eta**2 * C**2))


def variance_chip(inputs: ScalarInputs, cfg: ReedPhyConfig) -> MomentReport:
    """Paired-energy moments for any chip weights, antenna count R and
    fading fourth-moment ratio kappa.

    Var = a (S_+^2 + S_-^2 + (kappa - 2) sum(pos^2 + neg^2))
    + b (S_+ + S_-) + r, with (a, b, r) from ``_coefficients``.  R antennas
    replicate the chip weights, and the (kappa - 2) fading correction joins
    the self-noise.  One chip, one antenna and kappa = 2 give the
    single-shot Rayleigh law (S_+^2 + S_-^2) + (2 sigma_z^2 / eta)(S_+ + S_-)
    + 2 sigma_z^4 / eta^2.
    """
    self_coef, signal_coef, receiver_noise = _coefficients(cfg)
    sp, sm = inputs.s_plus, inputs.s_minus
    fourth = (cfg.kappa - 2.0) * float(np.sum(inputs.pos**2 + inputs.neg**2))
    return MomentReport(
        mean=inputs.signed_sum,
        self_noise=self_coef * (sp**2 + sm**2 + fourth),
        signal_noise=signal_coef * (sp + sm),
        receiver_noise=receiver_noise,
    )


def sigma_air_bound(beta: float, Q: int, G: float, d: int, eta: float,
                    noise_var: float, chip_weights=(1.0,)) -> float:
    """Second-moment bound on the vector aggregation error, built from the
    variance law's coefficients at one antenna:

    (sum c^2 / C^2)(beta Q G)^2 + (2 sigma_z^2 sqrt(d) / (eta C)) beta Q G
    + 2 d M sigma_z^4 / (eta^2 C^2).  chip_weights=[1] is the single-pair
    case.
    """
    _check(beta=beta, G=G)
    if Q < 1 or d < 1:
        raise ValueError(f"Q and d must be >= 1, got {Q} and {d}")
    self_coef, signal_coef, receiver_noise = _coefficients(
        ReedPhyConfig(eta=eta, noise_var=noise_var, chip_weights=chip_weights))
    bqg = beta * Q * G
    return self_coef * bqg**2 + signal_coef * np.sqrt(d) * bqg + d * receiver_noise


def eta_schedule(budgets, K: int, d: int, mean_powers, C_M: float, beta: float,
                 Q: int, G: float) -> float:
    """Largest gain feasible for every client's average-energy budget:
    min_k E_k K sqrt(d) mu_k^2 / (C_M beta Q G)."""
    E = np.atleast_1d(np.asarray(budgets, dtype=float))
    mu2 = np.atleast_1d(np.asarray(mean_powers, dtype=float))
    _check(budgets=E, mean_powers=mu2, C_M=C_M, beta=beta, G=G)
    if K < 1 or d < 1 or Q < 1:
        raise ValueError(f"K, d and Q must be >= 1, got {K}, {d} and {Q}")
    return _gain(_gain_numerator(E, K, d, mu2), C_M, beta, Q, G)


# The unchecked cores below let a FedAvg run form the per-run parts once and
# reuse them every round.  Its inputs are checked by the configs that hold
# them, and it checks every round's gain itself before the first round.

def _gain_numerator(E: np.ndarray, K: int, d: int, mu2: np.ndarray) -> np.float64:
    """min_k E_k K sqrt(d) mu_k^2, the part of the gain fixed for a run.

    One budget or mean power is shared by every client; numpy rejects
    lengths that neither match nor are 1.  A numpy scalar, so that a
    denominator that underflows to 0 gives inf, not ZeroDivisionError."""
    return np.min(E * K * np.sqrt(d) * mu2)


def _gain(numerator: np.float64, C_M: float, beta: float, Q: int, G: float) -> float:
    """The gain from its per-run numerator.  Taking the min before dividing
    by the positive C_M beta Q G gives the same float: correctly rounded
    division by a positive number is monotone."""
    return float(numerator / (C_M * beta * Q * G))


def energy_audit(increments, cfg: ReedPhyConfig) -> np.ndarray:
    """Realized per-client average transmit energy of (K, d) increments,
    (eta C_M) / (K mu_k^2 d) * ||increment_k||_1."""
    arr = _increments(increments)
    return _audit(arr, cfg, _audit_denominator(cfg, *arr.shape))


def _audit_denominator(cfg: ReedPhyConfig, K: int, d: int) -> np.ndarray:
    """K mu_k^2 d per client, the part of the audit fixed for a run.  A
    product that overflows gives inf, so an audit of 0."""
    with np.errstate(over="ignore"):
        return K * np.broadcast_to(cfg.mean_powers, (K,)) * d


def _audit(increments: np.ndarray, cfg: ReedPhyConfig, kmd: np.ndarray) -> np.ndarray:
    """The audit of (K, d) increments from its per-run denominator."""
    return cfg.eta * cfg.weight_sum / kmd * np.add.reduce(np.abs(increments), 1)


def theorem_bound_rhs(consts: ConvergenceConstants, beta: float, Q: int, T: int,
                      K: int, sigma_air_sq: float) -> float:
    """Five-term stationarity bound on the average squared gradient norm."""
    _check(beta=beta)
    _check(strict=False, sigma_air_sq=sigma_air_sq)
    if Q < 1 or T < 1 or K < 1:
        raise ValueError(f"Q, T and K must be >= 1, got {Q}, {T} and {K}")
    L, G = consts.L, consts.G
    if beta > 1.0 / (8.0 * L * Q):
        raise ValueError(
            f"stepsize {beta} violates the hypothesis beta <= 1/(8 L Q) = "
            f"{1.0 / (8.0 * L * Q)}")
    return (
        4.0 * consts.F0_minus_Fstar / (beta * Q * T)
        + 2.0 * L**2 * beta**2 * Q**2 * G**2
        + 8.0 * L**3 * beta**3 * Q**3 * G**2
        + 4.0 * L * beta * Q / K * consts.sigma_g_sq
        + 2.0 * L / (beta * Q) * sigma_air_sq
    )
