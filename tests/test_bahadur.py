import math
from fractions import Fraction

import numpy as np
import pytest

from maxproj import InputError, NumericalError
from maxproj.bahadur import (
    are_table,
    gamma_profile,
    gamma_shift,
    kl_divergence,
    local_are,
    slope,
)
from maxproj.geometry import make_cover
from maxproj.kernels import ZonalKernel
from maxproj.legendre import harmonic_dim, legendre_eval, power_expansion
from maxproj.rng import stream
from maxproj.samplers import LegendreProfile, sample
from oracles import delta_ratio, shift_amplitude_exact, vmf_mean_resultant

DIMS = (2, 3, 5, 10)


def test_delta_ratio_consistent_with_expansions():
    # <P_j, t^l> / <P_0, P_0> = c_{j,d}(l) / nu_d(j)
    for d in (2, 3, 5):
        for l in range(13):
            exp = power_expansion(d, l)
            for j in range(l + 1):
                assert delta_ratio(d, j, l) == Fraction(exp[j], harmonic_dim(d, j))


def _series_gamma(alt, beta, d, kappa, s, terms=80):
    """gamma_kappa from the moment series sum_l kappa^l / l! <P_j, t^l> in exact projections."""
    step = 1 if alt == "vmf" else 2
    weights = np.zeros(beta + 1)
    term = 1.0
    for l in range(terms):
        for j in range(beta + 1):
            weights[j] += term * float(delta_ratio(d, j, step * l))
        term *= kappa / (l + 1)
    total = sum(float(c) * weights[j] * legendre_eval(d, j, s)
                for j, c in enumerate(power_expansion(d, beta)))
    return total / weights[0] - float(power_expansion(d, beta)[0])


def test_gamma_profile_closed_forms_match_moment_series():
    s = np.linspace(-1.0, 1.0, 41)
    for alt in ("vmf", "watson"):
        for d in (2, 3, 5, 10):
            for beta in range(1, 7):
                for kappa in (1e-2, 0.5, 3.0):
                    np.testing.assert_allclose(
                        gamma_profile(alt, beta, d, kappa, s), _series_gamma(alt, beta, d, kappa, s),
                        rtol=0, atol=1e-13, err_msg=f"{alt} beta={beta} d={d} kappa={kappa}")


def test_gamma_profile_is_zero_at_the_null_and_rejects_overflow():
    s = np.linspace(-1.0, 1.0, 11)
    for alt in ("vmf", "watson"):
        assert np.all(gamma_profile(alt, 4, 5, 0.0, s) == 0.0)
    with pytest.raises(NumericalError, match="overflow"):
        gamma_profile("watson", 4, 3, 1e3, s)


def test_kl_vmf_small_kappa_quadratic():
    # 2 KL / kappa^2 -> 1/d
    assert abs(kl_divergence("vmf", 3, 1e-3) - 1e-6 / 6.0) <= 1e-9
    for d in DIMS:
        val = kl_divergence("vmf", d, 1e-3)
        assert val == pytest.approx(1e-6 / (2 * d), rel=1e-4)


def test_kl_watson_vanishes_at_null():
    val = kl_divergence("watson", 3, 1e-6)
    assert 0.0 <= val <= 1e-11


def test_kl_profile_against_monte_carlo():
    d, m, kappa = 2, 1, 0.5
    n = 100_000
    x = sample(LegendreProfile(m, np.array([1.0, 0.0]), kappa), n, stream(81))
    logs = np.log1p(kappa * legendre_eval(d, m, np.clip(x[:, 0], -1, 1)))
    se = logs.std(ddof=1) / math.sqrt(n)
    assert abs(kl_divergence("lp", d, kappa, m=m) - logs.mean()) <= 3.0 * se


def test_kl_input_validation():
    with pytest.raises(InputError):
        kl_divergence("vmf", 3, 0.0)
    with pytest.raises(InputError):
        kl_divergence("lp", 3, 0.5)
    with pytest.raises(InputError):
        kl_divergence("lp", 3, 1.5, m=2)
    for kappa in (math.nan, math.inf):
        for alt, m in (("vmf", None), ("watson", None), ("lp", 2)):
            with pytest.raises(InputError):
                kl_divergence(alt, 3, kappa, m=m)
            with pytest.raises(InputError):
                gamma_profile(alt, 3, 3, kappa, 1.0, m=m)
    with pytest.raises(InputError):
        gamma_shift("lp", 3, 3, math.nan, m=3)
    with pytest.raises(InputError):
        gamma_shift("vmf", 3, 3, math.nan)
    with pytest.raises(InputError):
        slope("vmf", 3, 3, math.inf)


@pytest.mark.parametrize("d", [0, 1, 2.5])
@pytest.mark.parametrize("call", [
    lambda d: kl_divergence("vmf", d, 1.0),
    lambda d: gamma_profile("vmf", 1, d, 1.0, 1.0),
    lambda d: gamma_shift("vmf", 1, d, 1.0),
    lambda d: slope("vmf", 1, d, 1.0),
    lambda d: local_are("vmf", 1, d),
], ids=["kl_divergence", "gamma_profile", "gamma_shift", "slope", "local_are"])
def test_dimension_validation(call, d):
    with pytest.raises(InputError, match="dimension"):
        call(d)


# at d = 2 scipy's 0F1 returns 0 rather than inf once it overflows, and
# reports an ignored ZeroDivisionError on the way
@pytest.mark.filterwarnings("ignore::pytest.PytestUnraisableExceptionWarning")
def test_kl_overflow_is_a_numerical_error():
    for d in (2, 3):
        for alt in ("vmf", "watson"):
            with pytest.raises(NumericalError, match="overflow"):
                kl_divergence(alt, d, 800.0)


def test_kl_exponential_families_small_kappa_leading_term():
    # KL = kappa^2 / (2 d) (vMF) and kappa^2 (d-1) / (d^2 (d+2)) (Watson), + O(kappa^3)
    kappa = 1e-6
    for d in DIMS:
        lead = {"vmf": kappa * kappa / (2.0 * d),
                "watson": kappa * kappa * (d - 1) / (d * d * (d + 2.0))}
        for alt, value in lead.items():
            assert kl_divergence(alt, d, kappa) == pytest.approx(value, rel=1e-5, abs=0.0), (alt, d)


def test_kl_profile_small_kappa_leading_term():
    # KL = kappa^2 / (2 nu_d(m)) + O(kappa^3): the quadrature keeps its relative accuracy
    kappa = 1e-6
    for d in DIMS:
        for m in range(1, 7):
            lead = kappa * kappa / (2.0 * harmonic_dim(d, m))
            val = kl_divergence("lp", d, kappa, m=m)
            assert val == pytest.approx(lead, rel=1e-5, abs=0.0), (d, m)


def test_gamma_profile_vmf_first_moment_is_mean_resultant():
    # beta = 1: E(theta . U) = A_d(kappa), so gamma(1) = A_d exactly
    for d in (2, 3, 5):
        for kappa in (1e-2, 0.5, 2.0):
            val = gamma_profile("vmf", 1, d, kappa, 1.0)
            assert val == pytest.approx(vmf_mean_resultant(d, kappa), rel=1e-11)


def test_gamma_profile_profile_class_exact():
    beta, d, m, kappa = 5, 3, 3, 0.7
    amp = float(shift_amplitude_exact(beta, d, m))
    s = np.linspace(-1, 1, 9)
    np.testing.assert_allclose(
        gamma_profile("lp", beta, d, kappa, s, m=m),
        kappa * amp * legendre_eval(d, m, s),
        atol=1e-15,
    )
    assert gamma_shift("lp", beta, d, kappa, m=m) == pytest.approx((kappa * amp) ** 2, rel=1e-12)


def test_gamma_shift_is_taken_on_the_axis():
    # every Legendre weight of gamma is nonnegative, so no cosine beats s = 1
    grid = np.linspace(-1.0, 1.0, 4001)
    cases = [(alt, None, kappa) for alt in ("vmf", "watson") for kappa in (1e-2, 0.5, 5.0)]
    cases += [("lp", m, 0.5) for m in range(1, 7)]
    for alt, m, kappa in cases:
        for beta in range(1, 7):
            for d in DIMS:
                shift = gamma_shift(alt, beta, d, kappa, m=m)
                assert shift == gamma_profile(alt, beta, d, kappa, 1.0, m=m) ** 2
                assert np.max(gamma_profile(alt, beta, d, kappa, grid, m=m) ** 2) <= shift


def test_gamma_shift_zero_for_blind_combinations():
    assert gamma_shift("lp", 2, 3, 0.5, m=3) == 0.0
    assert gamma_shift("lp", 3, 3, 0.5, m=5) == 0.0


def test_gamma_shift_bounds_the_maximum_over_a_direction_cover():
    # a cover does not contain the axis: its maximum over the cover's cosines
    # stays at or below the axis value and approaches it
    cover = make_cover(3, 2000, seed=82)
    dense = gamma_shift("vmf", 3, 3, 0.5)
    on_cover = np.max(gamma_profile("vmf", 3, 3, 0.5, np.clip(cover[:, 0], -1.0, 1.0)) ** 2)
    assert on_cover <= dense + 1e-15
    assert on_cover == pytest.approx(dense, rel=1e-3)


def test_slope_denominator_beta1():
    # sum lambda_j nu_d(j) = 1/d for beta = 1
    for d in DIMS:
        assert ZonalKernel(1, d).total_variance == Fraction(1, d)
        kappa = 0.3
        expect = gamma_shift("vmf", 1, d, kappa) * d
        assert slope("vmf", 1, d, kappa) == pytest.approx(expect, rel=1e-12)


def test_even_power_blind_to_vmf():
    # slope / (2 KL) -> 0 for even beta under the unipolar exponential family
    for beta in (2, 4):
        r = gamma_shift("vmf", beta, 3, 1e-3) / (2 * kl_divergence("vmf", 3, 1e-3))
        assert r <= 1e-4
        assert local_are("vmf", beta, 3) == 0.0


def test_local_are_known_values():
    assert local_are("vmf", 3, 3) == pytest.approx(0.84, abs=0.005)
    assert local_are("lp", 3, 2, m=3) == pytest.approx(0.10, abs=0.005)
    assert local_are("vmf", 1, 7) == 1.0
    assert local_are("watson", 2, 4) == 1.0
    assert local_are("lp", 4, 3, m=2) == pytest.approx(0.92, abs=0.005)


def test_bahadur_report_bundle():
    # slope, KL and local ARE for one alternative, from the plain functions
    kappas = (1e-1, 1e-2)
    are = local_are("watson", 2, 3)
    slopes = [slope("watson", 2, 3, kappa) for kappa in kappas]
    kls = [kl_divergence("watson", 3, kappa) for kappa in kappas]
    assert are == 1.0
    assert len(slopes) == len(kls) == 2
    # slope/(2 KL) approaches the local ARE along the grid
    ratios = [s / (2.0 * k) for s, k in zip(slopes, kls)]
    assert abs(ratios[-1] - are) < abs(ratios[0] - are) + 1e-12
    assert 0.0 <= are <= 1.0


def test_are_table_layout():
    rows = are_table()
    # vMF rows at beta in {1,3,5}, Watson at {2,4,6}, profiles by parity
    labels = {(r["alternative"], r["beta"]) for r in rows}
    assert ("vMF", 1) in labels and ("vMF", 2) not in labels
    assert ("W", 2) in labels and ("W", 3) not in labels
    assert ("LP3", 3) in labels and ("LP3", 4) not in labels
    assert ("LP6", 6) in labels
    for r in rows:
        for d in DIMS:
            assert 0.0 < r[f"d={d}"] <= 1.0
