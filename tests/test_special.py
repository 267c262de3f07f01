"""The vMF and Watson closed forms, checked through the functions that evaluate them.

``bahadur`` reads the mean resultant, the Watson second moment and the log
normalizing constants from one helper: ``gamma_profile(alt, beta, d, kappa, 1)``
is E_kappa (theta . X)^beta - psi_d(beta), and ``kl_divergence`` integrates
the density ratio exp(kappa T) / c(kappa) with T = t (vMF) or t^2 (Watson).
The checks compare it with kappa E T - log c(kappa), the closed form of the
same number.
"""

import math

import numpy as np
import pytest

from maxproj import InputError
from maxproj.bahadur import gamma_profile, kl_divergence
from maxproj.geometry import surface_area
from oracles import weighted_inner

DIMS = (2, 3, 5, 10)


def _mean_resultant(d, kappa):
    return gamma_profile("vmf", 1, d, kappa, 1.0)


def _mean_square(d, kappa):
    # gamma at the axis is E t^2 - psi_d(2), and psi_d(2) = 1/d
    return gamma_profile("watson", 2, d, kappa, 1.0) + 1.0 / d


def _watson_by_quadrature(d, kappa):
    """E t^2 and M(1/2, d/2, kappa) = E_uniform exp(kappa t^2), both by quadrature."""
    def one(t):
        return 1.0

    def density(t):
        return math.exp(kappa * t * t)

    z = weighted_inner(density, one, d)
    return weighted_inner(lambda t: t * t, density, d) / z, z / weighted_inner(one, one, d)


def test_family_constants_reject_negative_kappa():
    for alt in ("vmf", "watson"):
        with pytest.raises(InputError):
            kl_divergence(alt, 3, -0.5)
        with pytest.raises(InputError):
            gamma_profile(alt, 2, 3, -0.5, 1.0)


def test_mean_resultant_closed_form_d3():
    # A_3(kappa) = coth(kappa) - 1/kappa
    for k in (0.5, 1.0, 2.0, 5.0):
        assert _mean_resultant(3, k) == pytest.approx(1.0 / math.tanh(k) - 1.0 / k, rel=1e-12)


def test_mean_resultant_small_kappa_expansion():
    # A_d = kappa/d - kappa^3/(d^2 (d+2)) + O(kappa^5)
    for d in DIMS:
        for k in np.geomspace(1e-3, 1e-1, 7):
            resid = _mean_resultant(d, k) - k / d + k**3 / (d * d * (d + 2))
            assert abs(resid) <= 10.0 * k**5


def test_norm_const_closed_form_d3():
    # a_3(kappa) / |S^2| = sinh(kappa) / kappa, so KL = kappa A_3(kappa) - log(sinh(kappa) / kappa)
    for k in (0.5, 1.0, 2.0):
        target = k * (1.0 / math.tanh(k) - 1.0 / k) - math.log(math.sinh(k) / k)
        assert kl_divergence("vmf", 3, k) == pytest.approx(target, rel=1e-12)


def test_norm_const_tends_to_surface_area():
    # both constants are 1 + O(kappa^2), so KL vanishes at the null without cancellation
    for d in DIMS:
        for alt in ("vmf", "watson"):
            assert 0.0 <= surface_area(d) * kl_divergence(alt, d, 1e-6) <= 1e-10
            assert gamma_profile(alt, 2, d, 0.0, 1.0) == 0.0


def test_watson_norm_ratio_is_kummer():
    # KL = kappa E t^2 - log M(1/2, d/2, kappa), with both by quadrature
    for d in (2, 3, 5):
        for k in (0.5, 2.0):
            mean_square, norm = _watson_by_quadrature(d, k)
            target = k * mean_square - math.log(norm)
            assert kl_divergence("watson", d, k) == pytest.approx(target, rel=1e-12)


def test_watson_mean_square_at_zero_and_slope():
    for d in DIMS:
        assert _mean_square(d, 0.0) == pytest.approx(1.0 / d, abs=1e-15)
        # one-sided second-order stencil for D_d'(0+)
        h = 1e-5
        deriv = (
            -3.0 * _mean_square(d, 0.0) + 4.0 * _mean_square(d, h) - _mean_square(d, 2.0 * h)
        ) / (2.0 * h)
        target = 2.0 * (d - 1.0) / (d * d * (d + 2.0))
        assert deriv == pytest.approx(target, abs=1e-8)


def test_watson_mean_square_is_expectation():
    # quadrature oracle: E t^2 under density prop to exp(kappa t^2) (1-t^2)^{(d-3)/2}
    d, kappa = 5, 2.0
    assert _mean_square(d, kappa) == pytest.approx(_watson_by_quadrature(d, kappa)[0], rel=1e-10)
