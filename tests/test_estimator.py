import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reedsim
from reedsim import (channel, cli, config, datasets, estimator, experiments, fedavg, moments,
                     streams)
from reedsim.channel import sample_fading, sample_general_fading, sample_noise
from reedsim.estimator import (_BLOCK, ReedPhyConfig, ScalarInputs,
                               aggregate_coherent_csit, aggregate_ideal,
                               aggregate_reed, chip_streams, sample_estimates)
from reedsim.moments import variance_chip
from reedsim.streams import StreamKey

from reference import reference_estimates

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

    @pytest.mark.parametrize("values", [[[1.0, 2.0]], []], ids=["2-D", "empty"])
    def test_rejects_other_than_one_nonempty_row(self, values):
        with pytest.raises(ValueError, match="^values must be a non-empty 1-D array$"):
            ScalarInputs(values)

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

    RADIO = dict(eta=2.0, noise_var=0.3, mean_powers=[0.5, 2.0], chip_weights=[1.0, 0.5, 0.5],
                 antennas=2, kappa=3.0)

    def test_equal_by_value(self):
        # fresh arrays with equal entries, two or more chips included
        a, b = ReedPhyConfig(**self.RADIO), ReedPhyConfig(**self.RADIO)
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        two = ReedPhyConfig(chip_weights=np.ones(2))
        assert two == ReedPhyConfig(chip_weights=np.ones(2))
        assert hash(two) == hash(ReedPhyConfig(chip_weights=np.ones(2)))
        assert a.with_eta(4.0) == dataclasses.replace(a, eta=4.0)
        assert a != "radio"

    @pytest.mark.parametrize("field, value", [
        ("eta", 2.5), ("noise_var", 0.0), ("mean_powers", [0.5, 2.5]),
        ("mean_powers", [0.5, 2.0, 2.0]), ("mean_powers", [[0.5, 2.0]]),
        ("chip_weights", [1.0, 0.5, 0.25]), ("chip_weights", [1.0, 0.5]), ("antennas", 3),
        ("kappa", 2.0)], ids=["eta", "noise_var", "mean_powers-entry", "mean_powers-length",
                              "mean_powers-shape", "chip_weights-entry", "chip_weights-length",
                              "antennas", "kappa"])
    def test_unequal_in_any_one_field(self, field, value):
        # an entry, or only the shape, of an array differs too
        a = ReedPhyConfig(**self.RADIO)
        b = dataclasses.replace(a, **{field: value})
        assert a != b and not a == b


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
        # one pair per chip group, at the group's first chip: at kappa != 2
        # each chip, at kappa = 2 each distinct weight, so uniform chips
        # build one pair and weights (1, 0.5, 1) a pair at chips 0 and 1
        calls = self._count_generators(monkeypatch)
        for kappa, weights, firsts in ((3.0, np.ones(chips), range(chips)),
                                       (2.0, np.ones(chips), [0]),
                                       (2.0, np.resize([1.0, 0.5], chips), range(min(chips, 2)))):
            cfg = ReedPhyConfig(eta=1.0, noise_var=0.5, chip_weights=weights,
                                antennas=2, kappa=kappa)
            calls.clear()
            streams = chip_streams(cfg, KEY.child(14))
            assert calls == [(14, m, b) for m in firsts for b in (0, 1)]
            # the aggregator reads the streams it is given and builds none
            calls.clear()
            aggregate_reed(np.arange(-6.0, 6.0).reshape(4, 3), cfg, streams)
            assert calls == []
            sample_estimates(ScalarInputs([1.0, -2.0, 0.5]), cfg, KEY.child(15), 10)
            assert calls == [(15, m, b) for m in firsts for b in (0, 1)]

    def test_streams_need_one_pair_per_chip(self):
        # one pair per chip group: three chips at kappa = 3, three distinct
        # weights over four chips at kappa = 2
        for kappa, weights in ((3.0, np.ones(3)), (2.0, [1.0, 0.5, 0.25, 0.5])):
            cfg = ReedPhyConfig(chip_weights=weights, kappa=kappa)
            for groups in (2, 4):
                other = ReedPhyConfig(chip_weights=np.arange(1.0, groups + 1), kappa=kappa)
                with pytest.raises(ValueError,
                                   match="^streams must hold one pair per chip group, 3, "):
                    aggregate_reed(np.ones((2, 3)), cfg, chip_streams(other, KEY.child(14)))
        # any number of uniform chips is one group at kappa = 2
        uniform = ReedPhyConfig(chip_weights=np.ones(4))
        assert aggregate_reed(np.ones((2, 3)), uniform,
                              chip_streams(ReedPhyConfig(), KEY.child(14))).shape == (3,)

    @pytest.mark.parametrize("kappa", [2.0, 3.0])
    def test_calls_read_on_along_the_streams(self, kappa):
        # a second call on one set of streams reads on past the first; at
        # kappa = 2 and one antenna a call over d columns draws the streams'
        # next d values, so the two calls equal one call over both calls'
        # columns on a fresh set
        cfg = ReedPhyConfig(eta=2.0, noise_var=0.5, chip_weights=[1.0, 0.5], kappa=kappa)
        inc = KEY.child(20).generator().normal(size=(3, 10))
        streams = chip_streams(cfg, KEY.child(21))
        first, second = (aggregate_reed(inc[:, cols], cfg, streams)
                         for cols in (slice(0, 4), slice(4, 10)))
        fresh = aggregate_reed(inc[:, 4:10], cfg, chip_streams(cfg, KEY.child(21)))
        assert not np.array_equal(second, fresh)
        if kappa == 2.0:
            whole = aggregate_reed(inc, cfg, chip_streams(cfg, KEY.child(21)))
            assert np.array_equal(np.concatenate([first, second]), whole)

    @pytest.mark.parametrize("kappa", [2.0, 3.0])
    def test_public_results_never_alias(self, kappa):
        # called without buffers, each public call draws into a set of its
        # own, so a result keeps its values through the next call
        cfg = ReedPhyConfig(eta=2.0, noise_var=0.5, chip_weights=[1.0, 0.5], kappa=kappa)
        inc = KEY.child(28).generator().normal(size=(3, 10))
        streams = chip_streams(cfg, KEY.child(29))
        inp = ScalarInputs([1.0, -0.5])
        for call in (lambda: aggregate_reed(inc, cfg, streams),
                     lambda: sample_estimates(inp, cfg, KEY.child(30), 10)):
            first = call()
            kept = first.copy()
            second = call()
            assert not np.shares_memory(first, second)
            assert np.array_equal(first, kept)

    def test_rayleigh_kernel_draws_only_energies(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the kappa = 2 kernel superposes no symbols")

        for name in ("sample_fading", "sample_general_fading", "sample_noise"):
            monkeypatch.setattr(estimator, name, forbidden)
        cfg = ReedPhyConfig(eta=1.0, noise_var=0.5, chip_weights=[1.0, 0.5], antennas=2)
        out = aggregate_reed(np.arange(-6.0, 6.0).reshape(4, 3), cfg,
                             chip_streams(cfg, KEY.child(19)))
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


def _gamma_with_temporaries(rng, k, n):
    """n Gamma(k) values as stream layout 6 draws them: one exponential at
    k = 1, -log of the product of 1 - U over k rows of uniforms, multiplied
    row after row, up to k = 6, and a standard gamma above."""
    if k == 1:
        return rng.standard_exponential(n)
    if k > 6:
        return rng.standard_gamma(k, n)
    factors = 1.0 - rng.random((k, n))
    product = factors[0]
    for factor in factors[1:]:
        product = product * factor
    return -np.log(product)


def _rayleigh_with_temporaries(pos, neg, cfg, key, n):
    """The kappa = 2 kernel as a sum over chip groups and branches of
    sign * (mean * G), over eta * C_M * R, with every temporary it names:
    the g chips of weight c, the first of them chip m, draw branch b's
    G ~ Gamma(g R) from the stream (m, b), and the groups are added in the
    order of their first chips.  The arithmetic the in-place kernel must
    keep."""
    groups = {}
    for m, c in enumerate(cfg.chip_weights.tolist()):
        groups.setdefault(c, [m, 0])[1] += 1
    total = np.zeros(n)
    for c, (m, g) in groups.items():
        for branch, sign, part in ((0, 1.0, pos), (1, -1.0, neg)):
            G = _gamma_with_temporaries(key.child(m, branch).generator(), g * cfg.antennas, n)
            mean = cfg.eta * c * part.sum(axis=0) + cfg.noise_var
            total += sign * (mean * G)
    return total / (cfg.eta * cfg.weight_sum * cfg.antennas)


class TestRayleighKernelBits:
    @pytest.mark.parametrize("noise_var", [0.0, 0.7], ids=["nv0", "nv0.7"])
    @pytest.mark.parametrize("weights", [
        [1.0], [1.0, 0.5, 2.0], [1.0, 0.25, 2.0, 0.5], [1.0, 0.5, 1.0], [1.0] * 7],
        ids=["M1", "M3", "M4", "M3eq", "M7eq"])
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
        assert np.array_equal(aggregate_reed(inc, cfg, chip_streams(cfg, KEY.child(22))),
                              expected)
        inp = ScalarInputs(inc[:, 0])
        assert np.array_equal(
            sample_estimates(inp, cfg, KEY.child(23), 1000),
            _rayleigh_with_temporaries(inp.pos[:, None], inp.neg[:, None], cfg,
                                       KEY.child(23), 1000))

    def test_bit_identical_above_the_scratch(self):
        # the product's further factors are drawn in blocks of _SCRATCH
        # columns, and read the stream as whole rows do
        n = channel._SCRATCH + 3
        inp = ScalarInputs([1.5, -0.4, 0.9])
        cfg = ReedPhyConfig(eta=2.5, noise_var=0.7, chip_weights=[1.0, 0.5, 1.0], antennas=2)
        assert np.array_equal(
            sample_estimates(inp, cfg, KEY.child(26), n),
            _rayleigh_with_temporaries(inp.pos[:, None], inp.neg[:, None], cfg,
                                       KEY.child(26), n))

    def test_sample_estimates_peak_is_total_and_one_buffer(self):
        # the call owns the n-long total and one n-long energy buffer; one
        # more n-long temporary per stream would reach 3 * 8n.  At M = 4
        # uniform chips each branch is a product of 4 factors, whose further
        # factors pass through one scratch of _SCRATCH values; unblocked,
        # they would add an n-long array
        n = 200_000
        inp = ScalarInputs([1.0, -0.5])
        for chips, bound in ((1, 2.5 * 8 * n), (4, 2.1 * 8 * n + 8 * channel._SCRATCH)):
            cfg = ReedPhyConfig(noise_var=0.5, chip_weights=np.ones(chips))
            tracemalloc.start()
            try:
                sample_estimates(inp, cfg, KEY.child(24), n)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound, chips


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

    def test_mixed_weights_and_antennas_match_the_law(self):
        # two chips of weight 1 share one Gamma(4) draw per branch at R = 2,
        # and the chip of weight 0.5 draws Gamma(2).  The estimate is a
        # signed weighted sum of independent Gamma variables, so its excess
        # kurtosis is at most 6 and the sample variance's relative standard
        # error at most sqrt(8 / n)
        inp = ScalarInputs([2.0, -1.0, 0.5])
        cfg = ReedPhyConfig(eta=1.5, noise_var=0.8, chip_weights=[1.0, 0.5, 1.0], antennas=2)
        n = 400_000
        draws = sample_estimates(inp, cfg, KEY.child(27), n)
        law = variance_chip(inp, cfg)
        assert abs(draws.mean() - law.mean) < 4.0 * np.sqrt(law.variance / n)
        assert abs(draws.var(ddof=1) - law.variance) < 4.0 * np.sqrt(8.0 / n) * law.variance

    def test_simo_matches_fixed_per_chip(self):
        inp = ScalarInputs([2.0, -1.0])
        simo = ReedPhyConfig(eta=1.0, noise_var=1.0, antennas=4)
        chips = ReedPhyConfig(eta=1.0, noise_var=1.0, chip_weights=np.ones(4))
        assert variance_chip(inp, simo).variance == pytest.approx(
            variance_chip(inp, chips).variance)
        a = sample_estimates(inp, simo, KEY.child(7, 0), 400_000)
        b = sample_estimates(inp, chips, KEY.child(7, 1), 400_000)
        assert abs(a.var() - b.var()) < 0.03 * variance_chip(inp, simo).variance

    @pytest.mark.parametrize("kappa", [2.0, 3.0])
    def test_equal_energy_forms_are_one_model(self, kappa):
        # the kernel and the law read only the products eta * c_m and the
        # normalization eta * C_M, so unit-weight chips at gain eta / M and
        # weight-1/M chips at gain eta differ only by rounding
        inp = ScalarInputs([2.0, -1.0, 0.3])
        M, eta = 3, 2.5
        unit = ReedPhyConfig(eta=eta / M, noise_var=0.7, chip_weights=np.ones(M),
                             antennas=2, kappa=kappa)
        spread = ReedPhyConfig(eta=eta, noise_var=0.7, chip_weights=np.full(M, 1 / M),
                               antennas=2, kappa=kappa)
        a = sample_estimates(inp, unit, KEY.child(8), 20_000)
        b = sample_estimates(inp, spread, KEY.child(8), 20_000)
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(a))
        law = [dataclasses.astuple(variance_chip(inp, cfg)) for cfg in (unit, spread)]
        assert law[0] == pytest.approx(law[1], rel=1e-12, abs=0)


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
        out = aggregate_reed(inc, cfg, chip_streams(cfg, KEY.child(8)))
        assert np.allclose(out, aggregate_ideal(inc), rtol=1e-14, atol=0.0)

    def test_reed_zero_increments(self):
        inc = np.zeros((3, 4))
        cfg = ReedPhyConfig(noise_var=0.0)
        assert np.array_equal(aggregate_reed(inc, cfg, chip_streams(cfg, KEY.child(9))),
                              np.zeros(4))

    def test_reed_unbiased(self):
        inc = np.array([[1.0, -0.5, 0.2], [0.5, 1.0, -0.4]])
        cfg = ReedPhyConfig(eta=1.0, noise_var=0.5)
        n = 20_000
        sums = np.zeros(3)
        sq = np.zeros(3)
        for i in range(n):
            est = aggregate_reed(inc, cfg, chip_streams(cfg, KEY.child(10, i)))
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
        draws = [aggregate_reed(inc, cfg, chip_streams(cfg, KEY.child(11, i)))[0]
                 for i in range(10_000)]
        assert min(draws) < 0.0

    def test_coherent_zero_noise_is_ideal(self):
        inc = np.array([[1.0, 2.0], [3.0, -4.0]])
        out = aggregate_coherent_csit(aggregate_ideal(inc), ReedPhyConfig(noise_var=0.0),
                                      KEY.child(12).generator())
        assert np.array_equal(out, aggregate_ideal(inc))

    @pytest.mark.parametrize("eta,target,tol", [(1.0, 0.5, 0.01), (100.0, 0.005, 0.02)])
    def test_coherent_noise_variance(self, eta, target, tol):
        cfg = ReedPhyConfig(eta=eta, noise_var=1.0)
        n = 1_000_000 // 10
        # one call over n coordinates of a zero mean: each draws its own
        # receiver noise
        draws = aggregate_coherent_csit(np.zeros(n), cfg, KEY.generator(13, int(eta)))
        # 1e5 draws: CLT band at relative ~0.9%; tolerances from the contract
        assert abs(draws.var() - target) < 2 * tol * target

    def test_coherent_eta_validation(self):
        # the coherent aggregator reads eta from the config, which rejects it
        with pytest.raises(ValueError, match="^eta "):
            ReedPhyConfig(eta=0.0, noise_var=1.0)


@pytest.mark.parametrize("module", [
    reedsim, estimator, channel, cli, config, datasets, experiments, fedavg, moments, streams],
    ids=lambda m: m.__name__)
def test_public_names_resolve(module):
    assert all(hasattr(module, name) for name in module.__all__)
