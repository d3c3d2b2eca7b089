"""Closed-form moment laws and convergence-side evaluators.

These are the deterministic oracles the Monte Carlo pipeline is checked
against: exact mean/variance of the paired-energy estimator (single-shot,
chip-diverse, SIMO, non-Rayleigh), the aggregation-error second-moment
bound, the energy-feasible gain schedule and the stationarity bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimator import ReedPhyConfig, ScalarInputs

__all__ = [
    "MomentReport",
    "ConvergenceConstants",
    "variance_single",
    "variance_single_kappa",
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
        if self.L <= 0 or self.G <= 0:
            raise ValueError("L and G must be > 0")
        if self.sigma_g_sq < 0 or self.F0_minus_Fstar < 0:
            raise ValueError("sigma_g_sq and F0_minus_Fstar must be >= 0")


def variance_single(inputs: ScalarInputs, eta: float, noise_var: float) -> MomentReport:
    """Single-shot paired-energy moments.

    Var = (S_+^2 + S_-^2) + (2 sigma_z^2 / eta) sum|u_k| + 2 sigma_z^4 / eta^2.
    """
    if eta <= 0:
        raise ValueError(f"eta must be > 0, got {eta}")
    if noise_var < 0:
        raise ValueError(f"noise_var must be >= 0, got {noise_var}")
    sp, sm = inputs.s_plus, inputs.s_minus
    abs_sum = sp + sm
    return MomentReport(
        mean=inputs.signed_sum,
        self_noise=sp**2 + sm**2,
        signal_noise=2.0 * noise_var / eta * abs_sum,
        receiver_noise=2.0 * noise_var**2 / eta**2,
    )


def variance_single_kappa(inputs: ScalarInputs, eta: float, noise_var: float,
                          kappa: float) -> MomentReport:
    """Single-shot moments under general proper fading with fourth-moment
    ratio kappa; the (kappa - 2) correction is a fading effect and is
    folded into the self-noise component.  kappa = 2 reduces to
    variance_single."""
    if kappa < 1:
        raise ValueError(f"kappa must be >= 1, got {kappa}")
    base = variance_single(inputs, eta, noise_var)
    correction = (kappa - 2.0) * float(np.sum(inputs.pos**2 + inputs.neg**2))
    return MomentReport(
        mean=base.mean,
        self_noise=base.self_noise + correction,
        signal_noise=base.signal_noise,
        receiver_noise=base.receiver_noise,
    )


def variance_chip(inputs: ScalarInputs, cfg: ReedPhyConfig) -> MomentReport:
    """Chip-diverse (and SIMO) paired-energy moments.

    R antennas replicate the chip weights across antennas: the effective
    weight set has sum C_M * R, squared sum R * sum(c_m^2), and M * R
    noisy pairs.  Non-Rayleigh fading adds the (kappa - 2) self-noise
    correction scaled by the same diversity factor.
    """
    c = cfg.chip_weights
    R = cfg.antennas
    C = cfg.weight_sum * R
    sq = float(np.sum(c**2)) * R
    M_eff = cfg.n_chips * R
    sp, sm = inputs.s_plus, inputs.s_minus
    self_noise = sq / C**2 * (sp**2 + sm**2)
    if cfg.kappa != 2.0:
        self_noise += sq / C**2 * (cfg.kappa - 2.0) * float(
            np.sum(inputs.pos**2 + inputs.neg**2))
    return MomentReport(
        mean=inputs.signed_sum,
        self_noise=self_noise,
        signal_noise=2.0 * cfg.noise_var / (cfg.eta * C) * (sp + sm),
        receiver_noise=2.0 * M_eff * cfg.noise_var**2 / (cfg.eta**2 * C**2),
    )


def sigma_air_bound(beta: float, Q: int, G: float, d: int, eta: float,
                    noise_var: float, chip_weights=(1.0,)) -> float:
    """Second-moment bound on the vector aggregation error.

    (sum c^2 / C^2)(beta Q G)^2 + (2 sigma_z^2 sqrt(d) / (eta C)) beta Q G
    + 2 d M sigma_z^4 / (eta^2 C^2).  chip_weights=[1] is the single-pair
    case.
    """
    if beta <= 0 or Q < 1 or G <= 0 or d < 1 or eta <= 0 or noise_var < 0:
        raise ValueError("invalid sigma_air_bound parameters")
    c = np.asarray(chip_weights, dtype=float)
    if np.any(c < 0) or c.sum() <= 0:
        raise ValueError("chip weights must be >= 0 with positive sum")
    C = float(c.sum())
    M = c.size
    bqg = beta * Q * G
    return (
        float(np.sum(c**2)) / C**2 * bqg**2
        + 2.0 * noise_var * np.sqrt(d) / (eta * C) * bqg
        + 2.0 * d * M * noise_var**2 / (eta**2 * C**2)
    )


def eta_schedule(budgets, K: int, d: int, mean_powers, C_M: float, beta: float,
                 Q: int, G: float) -> float:
    """Largest gain feasible for every client's average-energy budget:
    min_k E_k K sqrt(d) mu_k^2 / (C_M beta Q G)."""
    E = np.atleast_1d(np.asarray(budgets, dtype=float))
    mu2 = np.atleast_1d(np.asarray(mean_powers, dtype=float))
    if np.any(E <= 0) or np.any(mu2 <= 0):
        raise ValueError("budgets and mean powers must be > 0")
    if K < 1 or d < 1 or C_M <= 0 or beta <= 0 or Q < 1 or G <= 0:
        raise ValueError("invalid eta_schedule parameters")
    # one budget or mean power is shared by every client; numpy rejects
    # lengths that neither match nor are 1
    return float(np.min(E * K * np.sqrt(d) * mu2 / (C_M * beta * Q * G)))


def energy_audit(increments, cfg: ReedPhyConfig, K: int) -> np.ndarray:
    """Realized per-client average transmit energy,
    (eta C_M) / (K mu_k^2 d) * ||increment_k||_1."""
    arr = np.asarray(increments, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != K:
        raise ValueError(f"increments must be (K={K}, d), got shape {arr.shape}")
    d = arr.shape[1]
    mu2 = np.broadcast_to(cfg.mean_powers, (K,))
    l1 = np.abs(arr).sum(axis=1)
    return cfg.eta * cfg.weight_sum / (K * mu2 * d) * l1


def theorem_bound_rhs(consts: ConvergenceConstants, beta: float, Q: int, T: int,
                      K: int, sigma_air_sq: float) -> float:
    """Five-term stationarity bound on the average squared gradient norm."""
    if beta <= 0 or Q < 1 or T < 1 or K < 1 or sigma_air_sq < 0:
        raise ValueError("invalid theorem_bound_rhs parameters")
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
