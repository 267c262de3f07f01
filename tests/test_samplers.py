import math

import numpy as np
import pytest
from scipy import integrate, stats

import maxproj.samplers as samplers
from maxproj import InputError, NumericalError
from maxproj.geometry import surface_area, uniform_points
from maxproj.legendre import harmonic_dim, legendre_eval
from maxproj.rng import stream
from maxproj.samplers import (
    Bingham,
    LegendreProfile,
    MixtureVMF,
    Uniform,
    VonMisesFisher,
    Watson,
    density,
    parse_alternative,
    preset,
    sample,
    three_center_mix,
    two_center_mix,
)
from maxproj.special import watson_mean_square

E1_3 = np.array([1.0, 0.0, 0.0])


def test_sampling_is_deterministic():
    spec = VonMisesFisher(E1_3, 1.5)
    a = sample(spec, 200, stream(5))
    b = sample(spec, 200, stream(5))
    assert np.array_equal(a, b)


def test_samples_are_unit_rows():
    for spec in (
        Uniform(4),
        VonMisesFisher(E1_3, 2.0),
        Watson(E1_3, 1.0),
        LegendreProfile(3, np.array([0, 1.0]), 1.0),
        Bingham(np.diag([1.0, 2.0, 3.0])),
        preset("mixvmf3", 3, p=0.25),
    ):
        x = sample(spec, 300, stream(6))
        assert np.max(np.abs(np.linalg.norm(x, axis=1) - 1.0)) <= 1e-12


def test_vmf_zero_concentration_is_uniform():
    n = 10_000
    x = sample(VonMisesFisher(E1_3, 0.0), n, stream(7, 0))
    y = uniform_points(3, n, stream(7, 1))
    ks = stats.ks_2samp(x[:, 0], y[:, 0])
    assert ks.pvalue > 0.01


def test_vmf_mean_resultant_d3():
    n = 100_000
    # coth(1) - 1 = 0.3130352854993312
    x = sample(VonMisesFisher(E1_3, 1.0), n, stream(8))
    t = x @ E1_3
    se = t.std(ddof=1) / math.sqrt(n)
    assert abs(t.mean() - 0.3130352854993312) <= 4.0 * se


def test_watson_moments_and_symmetry():
    n = 100_000
    spec = Watson(E1_3, 2.0)
    x = sample(spec, n, stream(9))
    t = x @ E1_3
    se = t.std(ddof=1) / math.sqrt(n)
    assert abs(t.mean()) <= 4.0 * se
    t2 = t * t
    se2 = t2.std(ddof=1) / math.sqrt(n)
    assert abs(t2.mean() - watson_mean_square(3, 2.0)) <= 4.0 * se2


def test_profile_class_first_harmonic_moment():
    n = 100_000
    m, kappa, d = 3, 1.0, 3
    spec = LegendreProfile(m, E1_3, kappa)
    x = sample(spec, n, stream(10))
    vals = legendre_eval(d, m, np.clip(x @ E1_3, -1, 1))
    se = vals.std(ddof=1) / math.sqrt(n)
    assert abs(vals.mean() - kappa / harmonic_dim(d, m)) <= 4.0 * se


def test_bingham_second_moments_match_quadrature():
    # diagonal A, d = 3: E x_d^2 by the 1-D marginal of the quadratic form
    a3 = 1.5
    spec = Bingham(np.diag([0.0, 0.5, a3]))
    n = 100_000
    x = sample(spec, n, stream(11))
    t2 = x[:, 2] ** 2

    def weight(t):
        r2 = 1.0 - t * t
        mean = 0.5 * (0.0 + 0.5) * r2
        half = 0.5 * (0.0 - 0.5) * r2
        from scipy.special import i0e

        return math.exp(a3 * t * t + mean + abs(half)) * i0e(half)

    num, _ = integrate.quad(lambda t: t * t * weight(t), -1, 1)
    den, _ = integrate.quad(weight, -1, 1)
    se = t2.std(ddof=1) / math.sqrt(n)
    assert abs(t2.mean() - num / den) <= 4.0 * se


def test_cosine_rejection_raises_on_low_acceptance():
    # the uniform proposal accepts about 1 / (2 kappa) = 5e-6 of its draws here
    with pytest.raises(NumericalError, match="cosine rejection acceptance .* below 0.0001"):
        sample(VonMisesFisher(E1_3, 1e5), 10, stream(13))


def test_bingham_low_acceptance_falls_back_to_metropolis(monkeypatch):
    monkeypatch.setattr(samplers, "_ACCEPT_WINDOW", 0)
    monkeypatch.setattr(samplers, "_BINGHAM_MIN_ACCEPT", 1.0)
    with pytest.warns(RuntimeWarning, match="falling back to Metropolis"):
        x = sample(Bingham(np.diag([0.0, 0.5, 1.5])), 50, stream(14))
    assert x.shape == (50, 3)
    np.testing.assert_allclose(np.linalg.norm(x, axis=1), 1.0, atol=1e-12)


def test_mixture_component_weights():
    spec = three_center_mix(0.25, E1_3, np.array([0, 1.0, 0]), np.array([0, 0, 1.0]), 8.0, 8.0, 8.0)
    x = sample(spec, 40_000, stream(12))
    # with kappa = 8 the three caps are well separated
    labels = np.argmax(x @ np.eye(3).T, axis=1)
    freq = np.bincount(labels, minlength=3) / x.shape[0]
    assert np.allclose(freq, [0.25, 0.25, 0.5], atol=0.02)


def test_density_uniform_and_profile_boundary():
    assert density(Uniform(3), E1_3) == pytest.approx(1.0 / surface_area(3), abs=1e-15)
    spec = LegendreProfile(1, E1_3, 1.0)
    assert density(spec, -E1_3) == pytest.approx(0.0, abs=1e-15)


def test_density_vmf_mode_value():
    # independent oracle: f(theta) = e^kappa / integral of e^{kappa t} over S^2
    #                              = e / (2 pi (e - 1/e)) at kappa = 1
    spec = VonMisesFisher(E1_3, 1.0)
    target = math.e / (2.0 * math.pi * (math.e - 1.0 / math.e))
    assert density(spec, E1_3) == pytest.approx(target, rel=1e-12)
    assert target == pytest.approx(0.184065499616596, abs=1e-14)


def test_density_integrates_to_one():
    # circle quadrature for d = 2 specs, including Bingham
    phi = np.linspace(0.0, 2.0 * math.pi, 20_001)[:-1]
    pts = np.column_stack([np.cos(phi), np.sin(phi)])
    w = 2.0 * math.pi / phi.shape[0]
    for spec in (
        VonMisesFisher(np.array([1.0, 0.0]), 2.0),
        Watson(np.array([0.0, 1.0]), 1.5),
        LegendreProfile(4, np.array([1.0, 0.0]), 0.5),
        Bingham(np.array([[0.5, 0.3], [0.3, -0.2]])),
        two_center_mix(0.3, np.array([1.0, 0.0]), np.array([-1.0, 0.0]), 1.0, 4.0),
    ):
        total = density(spec, pts).sum() * w
        assert total == pytest.approx(1.0, abs=1e-9)


def test_mixture_density_is_weighted_sum():
    spec = two_center_mix(0.3, E1_3, -E1_3, 1.0, 4.0)
    x = uniform_points(3, 5, stream(13))
    expect = 0.3 * density(spec.components[0], x) + 0.7 * density(spec.components[1], x)
    np.testing.assert_allclose(density(spec, x), expect, atol=1e-15)


def test_preset_directions_are_normalized():
    spec = preset("mixvmf3", 5, p=0.25)
    for comp in spec.components:
        assert np.linalg.norm(comp.theta) == pytest.approx(1.0, abs=1e-12)
    bing = preset("bing2", 4, kappa=0.25)
    assert bing.A[0, 0] == -1.0 and bing.A[-1, -1] == 1.0


def test_parse_alternative_strings():
    label, spec = parse_alternative("vmf:kappa=1", 3)
    assert isinstance(spec, VonMisesFisher) and spec.kappa == 1.0
    _, spec = parse_alternative("mixvmf2:p=0.5,k1=1,k2=4", 2)
    assert isinstance(spec, MixtureVMF)
    assert spec.weights == (0.5, 0.5)
    assert spec.components[1].kappa == 4.0
    _, spec = parse_alternative("lp:m=3,kappa=1", 2)
    assert isinstance(spec, LegendreProfile) and spec.m == 3
    _, spec = parse_alternative("uniform", 6)
    assert isinstance(spec, Uniform)
    with pytest.raises(InputError):
        parse_alternative("vmf:kappa", 3)
    with pytest.raises(InputError):
        parse_alternative("nosuch:a=1", 3)


def test_spec_validation():
    with pytest.raises(InputError):
        LegendreProfile(3, E1_3, 1.5)
    with pytest.raises(InputError):
        Watson(E1_3, -1.0)
    with pytest.raises(InputError):
        Bingham(np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(InputError):
        two_center_mix(1.5, E1_3, -E1_3, 1.0, 1.0)
    with pytest.raises(InputError):
        three_center_mix(0.7, E1_3, E1_3, E1_3, 1.0, 1.0, 1.0)
