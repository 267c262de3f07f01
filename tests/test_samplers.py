import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, optimize, stats

import maxproj.samplers as samplers
from maxproj import InputError, NumericalError
from maxproj.geometry import uniform_points
from maxproj.legendre import harmonic_dim, legendre_eval
from maxproj.rng import stream
from maxproj.samplers import (
    Bingham,
    LegendreProfile,
    MixtureVMF,
    Uniform,
    VonMisesFisher,
    Watson,
    parse_alternative,
    preset,
    sample,
)
from oracles import watson_mean_square

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


def test_bingham_rejection_raises_on_low_acceptance(monkeypatch):
    monkeypatch.setattr(samplers, "_ACCEPT_WINDOW", 0)
    monkeypatch.setattr(samplers, "_MIN_ACCEPT", 1.0)
    with pytest.raises(NumericalError, match="Bingham rejection acceptance .* below 1"):
        sample(Bingham(np.diag([0.0, 0.5, 1.5])), 50, stream(14))


@pytest.mark.parametrize("name", ["bing1", "bing2"])
def test_bingham_acceptance_stays_above_a_tenth(name, monkeypatch):
    # the angular central Gaussian envelope accepts a share bounded below in
    # kappa, so the rejection sampler needs no fallback at any concentration
    monkeypatch.setattr(samplers, "_ACCEPT_WINDOW", 0)
    monkeypatch.setattr(samplers, "_MIN_ACCEPT", 0.1)
    for d in (2, 3, 5, 10):
        for kappa in (0.1, 1.0, 10.0, 1e3, 1e8):
            x = sample(preset(name, d, kappa=kappa), 5000, stream(15, d))
            assert x.shape == (5000, d)


@st.composite
def shifted_spectra(draw):
    """Tuples a >= 0 of length d in {2, 3, 5, 10} with one a_i = 0."""
    d = draw(st.sampled_from((2, 3, 5, 10)))
    rest = draw(st.lists(st.floats(0.0, 1e9), min_size=d - 1, max_size=d - 1))
    zero = draw(st.integers(0, d - 1))
    return tuple(rest[:zero] + [0.0] + rest[zero:])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(shifted=shifted_spectra())
def test_bingham_tuning_solves_its_equation_once(shifted):
    a2 = 2.0 * np.array(shifted)
    d = a2.shape[0]

    def f(b):
        return math.fsum(1.0 / (b + a2)) - 1.0

    b = samplers._bingham_tuning(shifted)
    assert 1.0 <= b <= d
    assert abs(f(b)) <= 1e-12
    # the root scipy's brentq found before, to within its xtol + rtol * |b|
    ref = float(d) if abs(f(d)) < 1e-13 else optimize.brentq(f, 1e-12, float(d))
    assert abs(b - ref) <= 2e-12 + 4.0 * np.finfo(float).eps * b
    before = samplers._bingham_tuning.cache_info()
    assert samplers._bingham_tuning(shifted) == b
    after = samplers._bingham_tuning.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


def test_mixture_component_weights():
    spec = MixtureVMF((0.25, 0.25, 0.5), (VonMisesFisher(E1_3, 8.0),
                                          VonMisesFisher(np.array([0, 1.0, 0]), 8.0),
                                          VonMisesFisher(np.array([0, 0, 1.0]), 8.0)))
    x = sample(spec, 40_000, stream(12))
    # with kappa = 8 the three caps are well separated
    labels = np.argmax(x @ np.eye(3).T, axis=1)
    freq = np.bincount(labels, minlength=3) / x.shape[0]
    assert np.allclose(freq, [0.25, 0.25, 0.5], atol=0.02)


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
    with pytest.raises(InputError, match="kappa given twice"):
        parse_alternative("vmf:kappa=1,kappa=5", 3)


@pytest.mark.parametrize("weights", [(math.nan, math.nan), (0.5, math.nan),
                                     (math.nan, 1.0), (math.inf, 0.5)])
def test_mixture_rejects_weights_that_are_not_positive_numbers(weights):
    components = (VonMisesFisher(E1_3, 1.0), VonMisesFisher(-E1_3, 1.0))
    with pytest.raises(InputError, match="weights must be positive and sum to 1"):
        MixtureVMF(weights, components)


@pytest.mark.parametrize("text", ["mixvmf1:p=0", "mixvmf2:p=1", "mixvmf2:p=1.5",
                                  "mixvmf3:p=0.5", "mixvmf4:p=0.7", "mixvmf4:p=-0.1"])
def test_mixture_presets_reject_a_weight_at_or_below_zero(text):
    with pytest.raises(InputError, match="weights must be positive"):
        parse_alternative(text, 3)


def test_profile_order_is_capped():
    assert LegendreProfile(samplers.MAX_PROFILE_ORDER, E1_3, 1.0).m == 20
    with pytest.raises(InputError, match="profile order must be an integer >= 1, got 0"):
        LegendreProfile(0, E1_3, 1.0)
    for m in (21, 100):
        with pytest.raises(InputError, match=r"profile order must lie in 1\.\.20"):
            LegendreProfile(m, E1_3, 1.0)


def test_spec_validation():
    with pytest.raises(InputError):
        LegendreProfile(3, E1_3, 1.5)
    with pytest.raises(InputError):
        Watson(E1_3, -1.0)
    with pytest.raises(InputError):
        Bingham(np.array([[0.0, 1.0], [0.5, 0.0]]))
    # a non-finite concentration or matrix entry is an input error, not a
    # failed rejection sampler or eigensolver later
    for kappa in (-1.0, math.nan, math.inf):
        with pytest.raises(InputError):
            VonMisesFisher(E1_3, kappa)
        with pytest.raises(InputError):
            Watson(E1_3, kappa)
    for bad in (math.nan, math.inf):
        with pytest.raises(InputError):
            Bingham(np.diag([0.0, bad, 0.0]))
    with pytest.raises(InputError):
        MixtureVMF((1.5, 1.0 - 1.5), (VonMisesFisher(E1_3, 1.0), VonMisesFisher(-E1_3, 1.0)))
    with pytest.raises(InputError):
        MixtureVMF((0.7, 0.7, 1.0 - 2.0 * 0.7), (VonMisesFisher(E1_3, 1.0),) * 3)
    # an axis is a vector of at least two coordinates, and A is at least 2 x 2
    with pytest.raises(InputError, match="must be a vector"):
        VonMisesFisher(np.eye(2), 1.0)
    for spec in (VonMisesFisher, Watson, lambda theta, kappa: LegendreProfile(2, theta, kappa)):
        with pytest.raises(InputError, match="dimension must be an integer >= 2, got 1"):
            spec(np.array([1.0]), 1.0)
    with pytest.raises(InputError, match="dimension must be an integer >= 2, got 1"):
        Bingham(np.array([[1.0]]))


@pytest.mark.parametrize("kappa", ["1", None, 1j, np.array([0.5, 1.0])],
                         ids=["str", "None", "complex", "array"])
def test_a_concentration_that_is_not_a_real_number_is_an_input_error(kappa):
    for spec in (VonMisesFisher, Watson, lambda theta, kappa: LegendreProfile(2, theta, kappa)):
        with pytest.raises(InputError, match="concentration must be finite and >= 0"):
            spec(E1_3, kappa)
    with pytest.raises(InputError, match="preset 'vmf1': kappa=.* is not a finite number"):
        preset("vmf1", 3, kappa=kappa)
