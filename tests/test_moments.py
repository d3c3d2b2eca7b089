import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reedsim.estimator import ReedPhyConfig, ScalarInputs
from reedsim.fedavg import FedRunConfig
from reedsim.moments import (ConvergenceConstants, _audit, _audit_denominator, energy_audit,
                             eta_schedule, sigma_air_bound, theorem_bound_rhs, variance_chip)
from reedsim.streams import StreamKey

inputs_strategy = st.lists(
    st.floats(-10, 10, allow_nan=False), min_size=1, max_size=8
).map(ScalarInputs)


def _single(inputs, eta, noise_var, kappa=2.0):
    # the single-shot law: one chip, one antenna
    return variance_chip(inputs, ReedPhyConfig(eta=eta, noise_var=noise_var, kappa=kappa))


class TestVarianceSingle:
    def test_reference_point(self):
        rep = _single(ScalarInputs([2.0, -1.0]), 1.0, 1.0)
        assert rep.mean == 1.0
        assert rep.self_noise == 5.0
        assert rep.signal_noise == 6.0
        assert rep.receiver_noise == 2.0
        assert rep.variance == 13.0

    def test_all_zero_noiseless(self):
        rep = _single(ScalarInputs([0.0, 0.0]), 1.0, 0.0)
        assert rep.variance == 0.0

    def test_pure_receiver_noise(self):
        rep = _single(ScalarInputs([0.0]), 1.0, 1.0)
        assert rep.variance == 2.0
        assert rep.receiver_noise == 2.0

    def test_eta_validation(self):
        with pytest.raises(ValueError):
            _single(ScalarInputs([1.0]), 0.0, 1.0)

    @given(inputs=inputs_strategy, eta=st.floats(0.1, 10), nv=st.floats(0, 5))
    def test_decomposition_additivity(self, inputs, eta, nv):
        rep = _single(inputs, eta, nv)
        assert rep.variance == rep.self_noise + rep.signal_noise + rep.receiver_noise
        assert rep.self_noise >= 0 and rep.signal_noise >= 0 and rep.receiver_noise >= 0


class TestVarianceKappa:
    def test_kappa_three_reference(self):
        rep = _single(ScalarInputs([2.0, -1.0]), 1.0, 1.0, kappa=3.0)
        assert rep.variance == 18.0

    def test_kappa_one_constant_modulus_single_user(self):
        rep = _single(ScalarInputs([1.0]), 1.0, 0.0, kappa=1.0)
        assert rep.variance == 0.0

    def test_kappa_validation(self):
        with pytest.raises(ValueError):
            _single(ScalarInputs([1.0]), 1.0, 0.0, kappa=0.5)


class TestVarianceChip:
    def test_fixed_per_chip_reference(self):
        cfg = ReedPhyConfig(eta=1.0, noise_var=1.0, chip_weights=[1.0, 1.0])
        rep = variance_chip(ScalarInputs([2.0, -1.0]), cfg)
        assert rep.variance == pytest.approx(6.5)

    def test_fixed_total_reference(self):
        cfg = ReedPhyConfig(eta=1.0, noise_var=1.0, chip_weights=[0.5, 0.5])
        rep = variance_chip(ScalarInputs([2.0, -1.0]), cfg)
        assert rep.self_noise == pytest.approx(2.5)
        assert rep.signal_noise == pytest.approx(6.0)
        assert rep.receiver_noise == pytest.approx(4.0)

    def test_simo_scaling(self):
        inp = ScalarInputs([2.0, -1.0])
        cfg = ReedPhyConfig(eta=1.0, noise_var=1.0, antennas=4)
        assert variance_chip(inp, cfg).variance == pytest.approx(13.0 / 4)


class TestSigmaAirBound:
    def test_reference_point(self):
        out = sigma_air_bound(0.1, 10, 1.0, 100, 100.0, 1.0, [1.0])
        assert out == pytest.approx(1.22)

    def test_noiseless_reduces_to_self_term(self):
        c = [0.5, 0.25]
        out = sigma_air_bound(0.1, 10, 1.0, 50, 5.0, 0.0, c)
        expected = (0.25 + 0.0625) / 0.75**2 * 1.0
        assert out == pytest.approx(expected)

    def test_monotone_in_eta(self):
        lo = sigma_air_bound(0.1, 10, 1.0, 100, 200.0, 1.0, [1.0])
        hi = sigma_air_bound(0.1, 10, 1.0, 100, 100.0, 1.0, [1.0])
        assert lo < hi

    def test_validation(self):
        with pytest.raises(ValueError):
            sigma_air_bound(0.0, 10, 1.0, 100, 1.0, 1.0)


class TestEtaSchedule:
    def test_reference_point(self):
        assert eta_schedule(1.0, 10, 100, 1.0, 1.0, 0.1, 10, 1.0) == pytest.approx(100.0)

    def test_halving_beta_doubles_eta(self):
        a = eta_schedule(1.0, 10, 100, 1.0, 1.0, 0.1, 10, 1.0)
        b = eta_schedule(1.0, 10, 100, 1.0, 1.0, 0.05, 10, 1.0)
        assert b == pytest.approx(2.0 * a)

    def test_min_over_clients(self):
        full = eta_schedule([1.0, 0.5], 2, 100, [1.0, 1.0], 1.0, 0.1, 10, 1.0)
        tight = eta_schedule(0.5, 2, 100, 1.0, 1.0, 0.1, 10, 1.0)
        assert full == pytest.approx(tight)

    def test_validation(self):
        with pytest.raises(ValueError):
            eta_schedule(-1.0, 10, 100, 1.0, 1.0, 0.1, 10, 1.0)

    def test_scaling_law_bound_over_beta_sq(self):
        # with eta from the schedule, bound / beta^2 is constant in beta
        d, Q, G, K = 50, 10, 1.0, 10
        ratios = []
        for beta in (0.2, 0.1, 0.05, 0.025):
            eta = eta_schedule(1.0, K, d, 1.0, 2.0, beta, Q, G)
            bound = sigma_air_bound(beta, Q, G, d, eta, 1.5, [1.0, 1.0])
            ratios.append(bound / beta**2)
        assert max(ratios) <= min(ratios) * (1 + 1e-9)


class TestEnergyAudit:
    def test_zero_increment(self):
        cfg = ReedPhyConfig()
        assert energy_audit(np.zeros((2, 3)), cfg).tolist() == [0.0, 0.0]

    def test_reference_point(self):
        cfg = ReedPhyConfig(eta=3.0)
        out = energy_audit(np.array([[2.0]]), cfg)
        assert out[0] == pytest.approx(6.0)
        per_client = ReedPhyConfig(mean_powers=[1.0, 2.0])
        assert energy_audit(np.ones((2, 1)), per_client).tolist() == [0.5, 0.25]

    def test_dimension_mismatch(self):
        # K and d come from the shape, so only a (K, d) array is accepted
        with pytest.raises(ValueError, match="must be a"):
            energy_audit(np.zeros(3), ReedPhyConfig())
        # mean powers broadcast as in the kernel: one shared, or one per client
        with pytest.raises(ValueError):
            energy_audit(np.zeros((2, 3)), ReedPhyConfig(mean_powers=[1.0, 2.0, 3.0]))

    def test_feasible_under_schedule(self):
        # random increments with norm <= beta*Q*G never exceed the budget
        rng = StreamKey(99).generator()
        K, d, Q, G = 4, 12, 10, 1.0
        budgets = np.array([1.0, 0.5, 2.0, 0.8])
        weights = np.array([1.0, 0.5])
        for beta in (0.2, 0.05):
            eta = eta_schedule(budgets, K, d, np.ones(K), weights.sum(), beta, Q, G)
            cfg = ReedPhyConfig(eta=eta, chip_weights=weights)
            for _ in range(1000):
                inc = rng.standard_normal((K, d))
                inc *= beta * Q * G * rng.random((K, 1)) / np.linalg.norm(inc, axis=1, keepdims=True)
                audit = energy_audit(inc, cfg)
                assert np.all(audit <= budgets + 1e-12)


_positive = st.floats(1e-3, 1e3)


def _per_client(data, K):
    """A shared value or one per client."""
    n = data.draw(st.sampled_from([1, K]))
    return np.array(data.draw(st.lists(_positive, min_size=n, max_size=n)))


class TestPerRunCores:
    """A FedAvg run forms these once, before round 0, and reuses them every
    round; the result must equal the public functions bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), K=st.integers(1, 8), d=st.integers(1, 10**6),
           Q=st.integers(1, 50), C_M=_positive, G=_positive, beta0=_positive,
           schedule=st.sampled_from(["constant", "inv_sqrt"]))
    def test_schedule_over_stepsizes_is_each_scalar_call(self, data, K, d, Q, C_M, G, beta0,
                                                         schedule):
        E, mu2 = _per_client(data, K), _per_client(data, K)
        fed = FedRunConfig(Q=Q, T=1, batch_size=1, beta0=beta0, schedule=schedule)
        rounds = (0, 1, 2, 7, 99, 12345)
        etas = eta_schedule(E, K, d, mu2, C_M, np.array([fed.stepsize(t) for t in rounds]),
                            Q, G)
        assert etas.shape == (len(rounds),)
        for t, eta in zip(rounds, etas):
            beta = fed.stepsize(t)
            assert eta_schedule(E, K, d, mu2, C_M, beta, Q, G) == eta
            # the min taken after dividing each client's term, as written
            assert np.min(E * K * np.sqrt(d) * mu2 / (C_M * beta * Q * G)) == eta

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), K=st.integers(1, 6), d=st.integers(1, 20),
           chips=st.lists(_positive, min_size=1, max_size=3),
           etas=st.lists(_positive, min_size=1, max_size=4))
    def test_audit_from_run_denominator_is_energy_audit(self, data, K, d, chips, etas):
        cfg = ReedPhyConfig(mean_powers=_per_client(data, K), chip_weights=chips)
        kmd = _audit_denominator(cfg, K, d)
        rng = StreamKey(data.draw(st.integers(0, 2**32))).generator()
        for eta in etas:
            inc = rng.standard_normal((K, d))
            phy = cfg.with_eta(eta)
            audit = energy_audit(inc, phy)
            assert np.array_equal(_audit(inc, phy, kmd), audit)
            # the formula in one expression, as its docstring writes it
            mu2 = np.broadcast_to(cfg.mean_powers, (K,))
            assert np.array_equal(
                eta * cfg.chip_weights.sum() / (K * mu2 * d) * np.abs(inc).sum(axis=1), audit)


class TestTheoremBound:
    CONSTS = ConvergenceConstants(L=1.0, G=1.0, sigma_g_sq=0.0, F0_minus_Fstar=1.0)

    def test_reference_point(self):
        out = theorem_bound_rhs(self.CONSTS, 0.1, 1, 10, 1, 0.0)
        assert out == pytest.approx(4.028)

    def test_air_term(self):
        out = theorem_bound_rhs(self.CONSTS, 0.1, 1, 10, 1, 0.01)
        assert out == pytest.approx(4.228)

    def test_large_T_limit(self):
        consts = ConvergenceConstants(L=1.0, G=1.0, sigma_g_sq=0.5, F0_minus_Fstar=1.0)
        beta, Q, K = 0.01, 2, 3
        out = theorem_bound_rhs(consts, beta, Q, 10**9, K, 0.0)
        limit = (2 * beta**2 * Q**2 + 8 * beta**3 * Q**3
                 + 4 * beta * Q * 0.5 / K)
        assert out == pytest.approx(limit, rel=1e-3)

    def test_stepsize_hypothesis_enforced(self):
        with pytest.raises(ValueError):
            theorem_bound_rhs(self.CONSTS, 0.2, 1, 10, 1, 0.0)

    def test_constants_validation(self):
        with pytest.raises(ValueError):
            ConvergenceConstants(L=0.0, G=1.0, sigma_g_sq=0.0, F0_minus_Fstar=0.0)


_FED = dict(Q=1, T=1, batch_size=4, beta0=0.1)
_CONSTS = dict(L=1.0, G=1.0, sigma_g_sq=0.0, F0_minus_Fstar=1.0)

# (called object, field the message must start with, call given one bad value)
_NON_FINITE_CASES = [
    ("FedRunConfig", "beta0", lambda x: FedRunConfig(**{**_FED, "beta0": x})),
    ("FedRunConfig", "clip_G", lambda x: FedRunConfig(**_FED, clip_G=x)),
    ("FedRunConfig", "budgets", lambda x: FedRunConfig(**_FED, clip_G=1.0, budgets=[1.0, x])),
    ("ConvergenceConstants", "L", lambda x: ConvergenceConstants(**{**_CONSTS, "L": x})),
    ("ConvergenceConstants", "G", lambda x: ConvergenceConstants(**{**_CONSTS, "G": x})),
    ("ConvergenceConstants", "sigma_g_sq",
     lambda x: ConvergenceConstants(**{**_CONSTS, "sigma_g_sq": x})),
    ("eta_schedule", "budgets", lambda x: eta_schedule(x, 10, 100, 1.0, 1.0, 0.1, 10, 1.0)),
    ("eta_schedule", "mean_powers", lambda x: eta_schedule(1.0, 10, 100, x, 1.0, 0.1, 10, 1.0)),
    ("eta_schedule", "beta", lambda x: eta_schedule(1.0, 10, 100, 1.0, 1.0, x, 10, 1.0)),
    ("eta_schedule", "G", lambda x: eta_schedule(1.0, 10, 100, 1.0, 1.0, 0.1, 10, x)),
    ("sigma_air_bound", "beta", lambda x: sigma_air_bound(x, 10, 1.0, 100, 1.0, 1.0)),
    ("sigma_air_bound", "G", lambda x: sigma_air_bound(0.1, 10, x, 100, 1.0, 1.0)),
    ("theorem_bound_rhs", "beta",
     lambda x: theorem_bound_rhs(TestTheoremBound.CONSTS, x, 1, 10, 1, 0.0)),
    ("theorem_bound_rhs", "sigma_air_sq",
     lambda x: theorem_bound_rhs(TestTheoremBound.CONSTS, 0.1, 1, 10, 1, x)),
]


@pytest.mark.parametrize("field, call", [pytest.param(field, call, id=f"{where}.{field}")
                                         for where, field, call in _NON_FINITE_CASES])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=str)
def test_non_finite_rejected_by_field(field, call, bad):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        call(bad)
