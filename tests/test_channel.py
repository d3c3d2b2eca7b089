import numpy as np
import pytest

from reedsim.channel import (_SCRATCH, _signed_gamma, sample_dither, sample_energy,
                             sample_fading, sample_general_fading, sample_noise)
from reedsim.streams import StreamKey

N = 1_000_000
KEY = StreamKey(31415)


def _rng(*path):
    return KEY.child(*path).generator()


def test_fading_zero_power_is_exactly_zero():
    assert sample_fading(_rng(0), 0.0, size=1) == 0j


def test_fading_negative_power_rejected():
    with pytest.raises(ValueError):
        sample_fading(_rng(0), -1.0, size=1)


def test_fading_energy_moments():
    h = sample_fading(_rng(1), 1.0, size=N)
    e = np.abs(h) ** 2
    # CLT bands: Var(|h|^2) = 1, Var(|h|^4) = E|h|^8 - 4 = 24 - 4 = 20
    assert abs(e.mean() - 1.0) < 4e-3
    assert abs((e**2).mean() - 2.0) < 2e-2


def test_fading_circular_symmetry():
    h = sample_fading(_rng(2), 1.0, size=N)
    second = (h**2).mean()
    assert abs(second) < 4e-3


def test_noise_zero_var_exact():
    assert sample_noise(_rng(3), 0.0, size=1) == 0j


def test_noise_negative_var_rejected():
    with pytest.raises(ValueError):
        sample_noise(_rng(3), -0.5, size=1)


def test_noise_energy_moment():
    z = sample_noise(_rng(4), 0.5, size=N)
    assert abs(np.mean(np.abs(z) ** 2) - 0.5) < 4e-3


def test_paired_noise_energies_uncorrelated():
    zp = sample_noise(_rng(5, 0), 1.0, size=N)
    zm = sample_noise(_rng(5, 1), 1.0, size=N)
    corr = np.corrcoef(np.abs(zp) ** 2, np.abs(zm) ** 2)[0, 1]
    assert abs(corr) < 0.005


def test_energy_moments():
    e = sample_energy(_rng(15), 2.5, size=N)
    # exponential with mean m = 2.5: variance m^2, fourth central moment
    # 9 m^4, so the sample variance has standard error sqrt(8 / N) m^2
    assert np.all(e >= 0.0)
    assert abs(e.mean() - 2.5) < 4.0 * 2.5 / np.sqrt(N)
    assert abs(e.var() - 6.25) < 4.0 * np.sqrt(8.0 / N) * 6.25


def test_energy_zero_mean_exact_and_negative_rejected():
    assert sample_energy(_rng(16), 0.0, size=1) == 0.0
    with pytest.raises(ValueError):
        sample_energy(_rng(16), -1.0, size=1)


def test_energy_deterministic_and_broadcast():
    means = np.array([0.5, 4.0])
    a = sample_energy(_rng(17), means, size=(3, 2))
    b = sample_energy(_rng(17), means, size=(3, 2))
    assert np.array_equal(a, b)
    # the means are powers of two, so dividing them out is exact
    assert np.array_equal(a / means, sample_energy(_rng(17), 1.0, size=(3, 2)))


def _erlang_cdf(x, k):
    """P(Gamma(k) <= x) = 1 - e^-x sum_{i<k} x^i / i! for integer k."""
    term = np.ones_like(x)
    tail = np.ones_like(x)
    for i in range(1, k):
        term = term * x / i
        tail += term
    return 1.0 - np.exp(-x) * tail


@pytest.mark.parametrize("looks", [2, 6, 7, 16])
def test_summed_energy_is_erlang(looks):
    # k unit-mean looks sum to a Gamma(k) variate, times the sign the draw
    # returns: a log product of k uniforms up to k = 6, one standard_gamma
    # fill above, so each side of the threshold is checked.  KS distance
    # of 200k draws against the Erlang CDF, at the 1% critical value
    # 1.628 / sqrt(n)
    n = 200_000
    out = np.empty(n)
    sign = _signed_gamma(_rng(18, looks), out, looks, np.empty(_SCRATCH))
    assert sign == (-1.0 if looks <= 6 else 1.0)
    x = np.sort(sign * out)
    cdf = _erlang_cdf(x, looks)
    i = np.arange(1, n + 1)
    distance = max((i / n - cdf).max(), (cdf - (i - 1) / n).max())
    assert distance < 1.628 / np.sqrt(n), distance


def test_summed_energy_into_out_is_the_sized_draw():
    # out holds the draws and arithmetic of an unblocked reference of its
    # size, on each side of the threshold and across the product's scratch
    # blocks: one exponential fill, the log of the product of 1 - U over k
    # whole random fills, or one standard_gamma fill
    n = 70_000
    for looks, sign in ((1, 1.0), (3, -1.0), (9, 1.0)):
        rng = _rng(19, looks)
        if looks == 1:
            gamma = rng.standard_exponential(n)
        elif looks == 3:
            product = 1.0 - rng.random(n)
            for _ in range(looks - 1):
                product *= 1.0 - rng.random(n)
            gamma = np.log(product)
        else:
            gamma = rng.standard_gamma(looks, n)
        out = np.empty(n)
        assert _signed_gamma(_rng(19, looks), out, looks, np.empty(_SCRATCH)) == sign
        assert np.array_equal(out.view(np.uint64), gamma.view(np.uint64))


def test_dither_unit_modulus():
    d = sample_dither(_rng(6), size=1000)
    assert np.max(np.abs(np.abs(d) - 1.0)) < 1e-12


def test_dither_zero_mean():
    d = sample_dither(_rng(7), size=N)
    m = d.mean()
    assert abs(m.real) < 4e-3 and abs(m.imag) < 4e-3


def test_dither_deterministic():
    assert sample_dither(_rng(8), size=1) == sample_dither(_rng(8), size=1)


def test_general_fading_kappa_limits():
    with pytest.raises(ValueError):
        sample_general_fading(_rng(9), 1.0, 0.5, size=1)


# NaN fails every comparison, so a check written as "x < 0" let it through
def test_fading_nan_power_rejected():
    with pytest.raises(ValueError, match="^mean_power "):
        sample_fading(_rng(0), [1.0, np.nan], size=2)


def test_noise_nan_var_rejected():
    with pytest.raises(ValueError, match="^noise_var "):
        sample_noise(_rng(3), np.nan, size=1)


def test_energy_nan_mean_rejected():
    with pytest.raises(ValueError, match="^mean_energy "):
        sample_energy(_rng(16), np.nan, size=2)


def test_general_fading_nan_power_and_kappa_rejected():
    with pytest.raises(ValueError, match="^mean_power "):
        sample_general_fading(_rng(9), np.nan, 2.0, size=1)
    with pytest.raises(ValueError, match="^kappa "):
        sample_general_fading(_rng(9), 1.0, np.nan, size=1)


def test_general_fading_kappa_one_constant_modulus():
    h = sample_general_fading(_rng(10), 2.0, 1.0, size=1000)
    assert np.max(np.abs(np.abs(h) ** 2 - 2.0)) < 1e-12


def test_general_fading_kappa_two_matches_rayleigh_moments():
    h = sample_general_fading(_rng(11), 1.0, 2.0, size=N)
    e = np.abs(h) ** 2
    assert abs(e.mean() - 1.0) < 4e-3
    assert abs((e**2).mean() - 2.0) < 2e-2
    assert abs((h**2).mean()) < 4e-3


def test_general_fading_kappa_three_fourth_moment():
    h = sample_general_fading(_rng(12), 1.0, 3.0, size=N)
    e = np.abs(h) ** 2
    assert abs(e.mean() - 1.0) < 6e-3
    assert abs((e**2).mean() - 3.0) < 5e-2


def test_per_row_mean_powers_broadcast():
    powers = np.array([[0.5], [4.0]])
    h = sample_fading(_rng(13), powers, size=(2, N // 2))
    g = sample_general_fading(_rng(14), powers, 3.0, size=(2, N // 2))
    for x in (h, g):
        e = np.abs(x) ** 2
        assert np.allclose(e.mean(axis=1), powers[:, 0], rtol=1.5e-2)
