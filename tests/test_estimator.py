import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reedsim
from reedsim import estimator
from reedsim.channel import sample_fading, sample_general_fading, sample_noise
from reedsim.estimator import (_BLOCK, ReedPhyConfig, ScalarInputs,
                               aggregate_coherent_csit, aggregate_ideal,
                               aggregate_reed, reference_estimates, sample_estimates)
from reedsim.moments import variance_chip
from reedsim.streams import StreamKey

KEY = StreamKey(271828)


class TestScalarInputs:
    def test_split_is_exact(self):
        inp = ScalarInputs([2.0, -1.5, 0.0])
        assert np.array_equal(inp.pos - inp.neg, inp.values)
        assert inp.s_plus == 2.0
        assert inp.s_minus == 1.5
        assert inp.signed_sum == 0.5

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            ScalarInputs([np.nan])

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=12))
    def test_split_property(self, values):
        inp = ScalarInputs(values)
        assert np.allclose(inp.pos - inp.neg, inp.values)
        assert inp.s_plus >= 0 and inp.s_minus >= 0


def _per_client_oracle(inp, cfg, key):
    """One estimate superposed client by client through the public
    samplers: stream (m, b) draws noise (R,), then fading (Ka, R) for the
    Ka clients with a nonzero part, and y = sum_k h_k * sqrt(eta * c_m *
    part_k / mu_k^2) + z.  Returns sum of sign * |y|^2 over eta * C_M * R."""
    R = cfg.antennas
    mu2 = np.broadcast_to(cfg.mean_powers, inp.values.shape)
    total = 0.0
    for m, c in enumerate(cfg.chip_weights):
        for branch, (sign, part) in enumerate(((1.0, inp.pos), (-1.0, inp.neg))):
            rng = key.generator(m, branch)
            active = np.flatnonzero(part)
            z = sample_noise(rng, cfg.noise_var, R)
            size = (active.size, R)
            h = (sample_fading(rng, mu2[active, None], size) if cfg.kappa == 2.0 else
                 sample_general_fading(rng, mu2[active, None], cfg.kappa, size))
            y = z
            for h_k, k in zip(h, active):
                y = y + h_k * np.sqrt(cfg.eta * c * part[k] / mu2[k])
            total += sign * float(np.sum(y.real**2 + y.imag**2))
    return total / (cfg.eta * cfg.weight_sum * R)


class TestPairedObservation:
    def test_no_signal_no_noise(self):
        est = reference_estimates(ScalarInputs([0.0, 0.0]), ReedPhyConfig(noise_var=0.0),
                                  KEY.child(0), 1)
        assert np.array_equal(est, [0.0])

    def test_single_client_noiseless_mean(self):
        # the estimate is e_plus = |h|^2 with unit mean power; e_minus is zero
        inp = ScalarInputs([1.0])
        cfg = ReedPhyConfig(noise_var=0.0)
        e = np.array([reference_estimates(inp, cfg, KEY.child(1, i), 1)[0]
                      for i in range(2000)])
        assert np.all(e >= 0.0)
        assert abs(e.mean() - 1.0) < 4.0 / np.sqrt(2000)

    def test_two_client_superposition_moments(self):
        # y_+ ~ CN(0, eta * S_+): mean 2, variance 4 at u = [1, 1]
        inp = ScalarInputs([1.0, 1.0])
        cfg = ReedPhyConfig(noise_var=0.0)
        draws = sample_estimates(inp, cfg, KEY.child(2), 1_000_000)
        # e_minus is identically 0 here so the estimate is e_plus / eta
        assert abs(draws.mean() - 2.0) < 4.0 * np.sqrt(4.0 / 1e6)
        assert abs(draws.var() - 4.0) < 0.015 * 4.0

    @staticmethod
    def _cfg(values, weights, antennas, kappa):
        # heterogeneous mean powers; K3 has one silent client
        inp = ScalarInputs(values)
        powers = np.linspace(0.5, 2.0, inp.values.size)
        return inp, ReedPhyConfig(eta=2.0, noise_var=0.3, mean_powers=powers,
                                  chip_weights=weights, antennas=antennas, kappa=kappa)

    @pytest.mark.parametrize("kappa", [1.0, 2.0, 3.0], ids=["kappa1", "kappa2", "kappa3"])
    @pytest.mark.parametrize("antennas", [1, 2], ids=["R1", "R2"])
    @pytest.mark.parametrize("weights", [[1.0], [1.0, 0.5]], ids=["M1", "M2"])
    @pytest.mark.parametrize("values", [[-0.8], [1.5, 0.0, -0.5]], ids=["K1", "K3"])
    def test_matches_vectorized_pipeline(self, values, weights, antennas, kappa):
        # the vectorized superposition reads the per-client oracle's draws
        inp, cfg = self._cfg(values, weights, antennas, kappa)
        for i in range(4):
            key = KEY.child(3, i)
            est = reference_estimates(inp, cfg, key, 1)
            assert est.shape == (1,)
            assert float(est[0]) == pytest.approx(_per_client_oracle(inp, cfg, key),
                                                  rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("kappa,weights,antennas", [
        (3.0, [1.0, 0.5], 2), (4.0, [1.0], 3), (1.0, [0.7, 0.3, 1.0], 2)],
        ids=["kappa3-M2-R2", "kappa4-M1-R3", "kappa1-M3-R2"])
    def test_general_fading_matches_closed_form(self, kappa, weights, antennas):
        # the (kappa - 2) self-noise term scaled by chips and antennas; two
        # positive clients make sum(pos^2) differ from S_+^2
        inp, cfg = self._cfg([1.5, 0.0, -0.5, 0.8], weights, antennas, kappa)
        law = variance_chip(inp, cfg)
        n = 400_000
        draws = sample_estimates(inp, cfg, KEY.child(20, int(kappa)), n)
        assert abs(draws.mean() - law.mean) < 5.0 * np.sqrt(law.variance / n)
        assert abs(draws.var() - law.variance) < 0.02 * law.variance

    @pytest.mark.parametrize("antennas", [1, 2], ids=["R1", "R2"])
    @pytest.mark.parametrize("weights", [[1.0], [1.0, 0.5]], ids=["M1", "M2"])
    @pytest.mark.parametrize("values", [[-0.8], [1.5, 0.0, -0.5]], ids=["K1", "K3"])
    def test_rayleigh_kernel_matches_reference_in_law(self, values, weights, antennas):
        # for kappa = 2 the kernel draws detected energies, not the
        # superposition: compare its first two moments with the closed form
        # and with the client-by-client reference, whose n_ref estimates are
        # the columns of one call.  The estimate is a signed
        # weighted sum of independent exponentials, so its excess kurtosis is
        # at most 6 and a sample variance of n draws has relative standard
        # error at most sqrt(8 / n).
        inp, cfg = self._cfg(values, weights, antennas, 2.0)
        law = variance_chip(inp, cfg)
        n_vec, n_ref = 200_000, 20_000
        vec = sample_estimates(inp, cfg, KEY.child(17), n_vec)
        ref = reference_estimates(inp, cfg, KEY.child(18), n_ref)
        se_mean = np.sqrt(law.variance / np.array([n_vec, n_ref]))
        se_var = law.variance * np.sqrt(8.0 / np.array([n_vec, n_ref]))
        assert abs(vec.mean() - law.mean) < 5.0 * se_mean[0]
        assert abs(vec.var() - law.variance) < 5.0 * se_var[0]
        assert abs(vec.mean() - ref.mean()) < 5.0 * np.hypot(*se_mean)
        assert abs(vec.var() - ref.var()) < 5.0 * np.hypot(*se_var)


class TestReedPhyConfig:
    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("field", ["eta", "noise_var", "mean_powers", "chip_weights",
                                       "kappa"])
    def test_rejects_nonfinite(self, field, value):
        # the message starts with the field so config errors name the key
        arg = [1.0, value] if field in ("mean_powers", "chip_weights") else value
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            ReedPhyConfig(**{field: arg})

    @pytest.mark.parametrize("eta", [0.0, -1.0, np.nan, np.inf],
                             ids=["zero", "negative", "nan", "inf"])
    def test_with_eta_rejects(self, eta):
        # the message starts with the field so config errors name the key
        with pytest.raises(ValueError, match="^eta "):
            ReedPhyConfig().with_eta(eta)

    def test_with_eta_equals_replace(self):
        cfg = ReedPhyConfig(eta=2.0, noise_var=0.3, mean_powers=[0.5, 2.0],
                            chip_weights=[1.0, 0.5], antennas=2, kappa=3.0)
        for eta in (0.25, 7.0):
            new, ref = cfg.with_eta(eta), dataclasses.replace(cfg, eta=eta)
            assert type(new) is ReedPhyConfig and cfg.eta == 2.0
            for f in dataclasses.fields(ReedPhyConfig):
                assert np.array_equal(getattr(new, f.name), getattr(ref, f.name)), f.name

    def test_no_chips_rejected_by_weight_rule(self):
        # an empty weight vector sums to 0
        with pytest.raises(ValueError, match="^chip_weights .* positive sum"):
            ReedPhyConfig(chip_weights=[])


class TestKernelStreams:
    def _count_generators(self, monkeypatch):
        calls = []
        original = StreamKey.generator

        def counting(key, *index):
            calls.append(key.child(*index).path)
            return original(key, *index)

        monkeypatch.setattr(StreamKey, "generator", counting)
        return calls

    @pytest.mark.parametrize("chips", [1, 3])
    def test_one_generator_per_chip_and_branch(self, monkeypatch, chips):
        calls = self._count_generators(monkeypatch)
        for kappa in (3.0, 2.0):
            cfg = ReedPhyConfig(eta=1.0, noise_var=0.5, chip_weights=np.ones(chips),
                                antennas=2, kappa=kappa)
            calls.clear()
            aggregate_reed(np.arange(-6.0, 6.0).reshape(4, 3), cfg, KEY.child(14))
            assert sorted(calls) == [(14, m, b) for m in range(chips) for b in (0, 1)]
            calls.clear()
            sample_estimates(ScalarInputs([1.0, -2.0, 0.5]), cfg, KEY.child(15), 10)
            assert len(calls) == 2 * chips

    def test_rayleigh_kernel_draws_only_energies(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the kappa = 2 kernel superposes no symbols")

        for name in ("sample_fading", "sample_general_fading", "sample_noise"):
            monkeypatch.setattr(estimator, name, forbidden)
        cfg = ReedPhyConfig(eta=1.0, noise_var=0.5, chip_weights=[1.0, 0.5], antennas=2)
        out = aggregate_reed(np.arange(-6.0, 6.0).reshape(4, 3), cfg, KEY.child(19))
        assert out.shape == (3,) and np.all(np.isfinite(out))

    def test_multi_block_draws_finite_and_repeatable(self):
        # only the superposition (kappa != 2) draws in blocks
        n = 2 * _BLOCK + 3
        inp = ScalarInputs([1.0, -0.5, 0.0])
        cfg = ReedPhyConfig(eta=1.0, noise_var=0.5, chip_weights=[1.0, 0.5], antennas=2,
                            kappa=3.0)
        a = sample_estimates(inp, cfg, KEY.child(16), n)
        b = sample_estimates(inp, cfg, KEY.child(16), n)
        assert a.shape == (n,)
        assert np.all(np.isfinite(a))
        assert np.array_equal(a, b)
        assert not np.array_equal(a[:_BLOCK], a[_BLOCK:2 * _BLOCK])


def _rayleigh_with_temporaries(pos, neg, cfg, key, n):
    """The kappa = 2 kernel as sum over chips and branches of
    sign * (mean * E).sum(axis=0), over eta * C_M * R, with every
    temporary it names: the arithmetic the in-place kernel must keep."""
    total = np.zeros(n)
    for m, c in enumerate(cfg.chip_weights):
        for branch, sign, part in ((0, 1.0, pos), (1, -1.0, neg)):
            E = key.child(m, branch).generator().standard_exponential((cfg.antennas, n))
            mean = cfg.eta * c * part.sum(axis=0) + cfg.noise_var
            total += sign * (mean * E).sum(axis=0)
    return total / (cfg.eta * cfg.weight_sum * cfg.antennas)


class TestRayleighKernelBits:
    @pytest.mark.parametrize("noise_var", [0.0, 0.7], ids=["nv0", "nv0.7"])
    @pytest.mark.parametrize("weights", [[1.0], [1.0, 0.5, 2.0], [1.0, 0.25, 2.0, 0.5]],
                             ids=["M1", "M3", "M4"])
    @pytest.mark.parametrize("antennas", [1, 2, 3], ids=["R1", "R2", "R3"])
    def test_bit_identical_to_temporaries(self, antennas, weights, noise_var):
        # per-client mean powers, a silent client and a zero coordinate
        inc = np.array([[1.5, -0.4, 0.0, 2.0], [0.0, 0.0, 0.0, 0.0],
                        [-0.5, 0.9, 0.0, -3.0]])
        cfg = ReedPhyConfig(eta=2.5, noise_var=noise_var, mean_powers=[0.5, 1.0, 2.0],
                            chip_weights=weights, antennas=antennas)
        u = inc / len(inc)
        expected = _rayleigh_with_temporaries(np.maximum(u, 0.0), np.maximum(-u, 0.0), cfg,
                                              KEY.child(22), inc.shape[1])
        # on a plain key, and on a grid node, whose (chip, branch) generators
        # take the leaf path of StreamKey.generator
        for key in (KEY.child(22), KEY.child(22).grid(len(weights), 2)):
            assert np.array_equal(aggregate_reed(inc, cfg, key), expected)
        inp = ScalarInputs(inc[:, 0])
        assert np.array_equal(
            sample_estimates(inp, cfg, KEY.child(23), 1000),
            _rayleigh_with_temporaries(inp.pos[:, None], inp.neg[:, None], cfg,
                                       KEY.child(23), 1000))

    def test_sample_estimates_peak_is_total_and_one_buffer(self):
        # at R = 1 the call owns the n-long total and one (1, n) energy
        # buffer; one more n-long temporary per stream would reach 3 * 8n
        n = 200_000
        inp = ScalarInputs([1.0, -0.5])
        cfg = ReedPhyConfig(noise_var=0.5)
        tracemalloc.start()
        try:
            sample_estimates(inp, cfg, KEY.child(24), n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 8 * n


class TestEstimates:
    def test_single_unbiased(self):
        inp = ScalarInputs([2.0, -1.0])
        cfg = ReedPhyConfig(eta=1.0, noise_var=1.0)
        draws = sample_estimates(inp, cfg, KEY.child(4), 1_000_000)
        assert abs(draws.mean() - 1.0) < 4.0 * np.sqrt(13.0 / 1e6)

    def test_chip_variance_halves(self):
        inp = ScalarInputs([2.0, -1.0])
        cfg = ReedPhyConfig(eta=1.0, noise_var=1.0, chip_weights=[1.0, 1.0])
        draws = sample_estimates(inp, cfg, KEY.child(5), 1_000_000)
        assert abs(draws.var() - 6.5) < 0.02 * 6.5

    def test_sign_symmetry(self):
        inp = ScalarInputs([1.0, -0.4, 0.7])
        cfg = ReedPhyConfig(eta=1.0, noise_var=0.5)
        n = 200_000
        a = sample_estimates(inp, cfg, KEY.child(6, 0), n)
        b = sample_estimates(ScalarInputs(-inp.values), cfg, KEY.child(6, 1), n)
        var = variance_chip(inp, cfg).variance
        assert abs((a + b).mean()) < 4.0 * np.sqrt(2.0 * var / n)

    def test_simo_matches_fixed_per_chip(self):
        inp = ScalarInputs([2.0, -1.0])
        simo = ReedPhyConfig(eta=1.0, noise_var=1.0, antennas=4)
        chips = ReedPhyConfig(eta=1.0, noise_var=1.0, chip_weights=np.ones(4))
        assert variance_chip(inp, simo).variance == pytest.approx(
            variance_chip(inp, chips).variance)
        a = sample_estimates(inp, simo, KEY.child(7, 0), 400_000)
        b = sample_estimates(inp, chips, KEY.child(7, 1), 400_000)
        assert abs(a.var() - b.var()) < 0.03 * variance_chip(inp, simo).variance


class TestAggregators:
    def test_ideal_mean(self):
        out = aggregate_ideal([np.array([1.0, 0.0]), np.array([3.0, 2.0])])
        assert np.array_equal(out, [2.0, 1.0])

    def test_ideal_idempotent_on_copies(self):
        v = np.array([0.3, -0.2, 1.1])
        out = aggregate_ideal([v] * 5)
        assert np.allclose(out, v)

    def test_ideal_zero_sum(self):
        out = aggregate_ideal([np.array([1.0, -2.0]), np.array([-1.0, 2.0])])
        assert np.array_equal(out, [0.0, 0.0])

    def test_ideal_rejects_non_matrix(self):
        # K and d come from the shape, so only a (K, d) array is accepted
        for bad in (np.ones(3), np.ones((2, 2, 2))):
            with pytest.raises(ValueError, match="must be a"):
                aggregate_ideal(bad)

    def test_reed_single_client_constant_modulus_exact(self):
        # K = 1, |h|^2 = mu^2 and no noise: every energy is eta * c * [u]_b
        inc = np.array([[1.0, -2.0, 0.5, 0.0]])
        cfg = ReedPhyConfig(noise_var=0.0, mean_powers=[2.0], chip_weights=[1.0, 0.5],
                            antennas=2, kappa=1.0)
        out = aggregate_reed(inc, cfg, KEY.child(8))
        assert np.allclose(out, aggregate_ideal(inc), rtol=1e-14, atol=0.0)

    def test_reed_zero_increments(self):
        inc = np.zeros((3, 4))
        cfg = ReedPhyConfig(noise_var=0.0)
        assert np.array_equal(aggregate_reed(inc, cfg, KEY.child(9)), np.zeros(4))

    def test_reed_unbiased(self):
        inc = np.array([[1.0, -0.5, 0.2], [0.5, 1.0, -0.4]])
        cfg = ReedPhyConfig(eta=1.0, noise_var=0.5)
        n = 20_000
        keys = KEY.child(10).grid(n, 1, 2)
        sums = np.zeros(3)
        sq = np.zeros(3)
        for i in range(n):
            est = aggregate_reed(inc, cfg, keys.child(i))
            sums += est
            sq += est**2
        mean = sums / n
        std = np.sqrt(sq / n - mean**2)
        ideal = aggregate_ideal(inc)
        assert np.all(np.abs(mean - ideal) <= 4.0 * std / np.sqrt(n))

    def test_reed_can_go_negative(self):
        # tiny positive signal, noisy channel: some draws must be negative
        inc = np.array([[0.01]])
        cfg = ReedPhyConfig(eta=1.0, noise_var=1.0)
        keys = KEY.child(11).grid(10_000, 1, 2)
        draws = [aggregate_reed(inc, cfg, keys.child(i))[0] for i in range(10_000)]
        assert min(draws) < 0.0

    def test_coherent_zero_noise_is_ideal(self):
        inc = np.array([[1.0, 2.0], [3.0, -4.0]])
        out = aggregate_coherent_csit(inc, ReedPhyConfig(noise_var=0.0), KEY.child(12))
        assert np.array_equal(out, aggregate_ideal(inc))

    @pytest.mark.parametrize("eta,target,tol", [(1.0, 0.5, 0.01), (100.0, 0.005, 0.02)])
    def test_coherent_noise_variance(self, eta, target, tol):
        inc = np.zeros((1, 1))
        cfg = ReedPhyConfig(eta=eta, noise_var=1.0)
        n = 1_000_000 // 10
        keys = KEY.child(13, int(eta)).grid(n)
        draws = np.array([aggregate_coherent_csit(inc, cfg, keys.child(i))[0]
                          for i in range(n)])
        # 1e5 draws: CLT band at relative ~0.9%; tolerances from the contract
        assert abs(draws.var() - target) < 2 * tol * target

    def test_coherent_eta_validation(self):
        # the coherent aggregator reads eta from the config, which rejects it
        with pytest.raises(ValueError, match="^eta "):
            ReedPhyConfig(eta=0.0, noise_var=1.0)


@pytest.mark.parametrize("module", [reedsim, estimator], ids=lambda m: m.__name__)
def test_public_names_resolve(module):
    assert all(hasattr(module, name) for name in module.__all__)
