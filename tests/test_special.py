import math

import numpy as np
import pytest
from scipy import special as sps

from maxproj import InputError
from maxproj.geometry import surface_area
from maxproj.special import (
    vmf_mean_resultant,
    vmf_norm_const,
    vmf_norm_ratio,
    watson_mean_square,
    watson_norm_const,
    watson_norm_ratio,
)

def test_family_constants_reject_negative_kappa():
    for fn in (vmf_mean_resultant, vmf_norm_const, vmf_norm_ratio,
               watson_mean_square, watson_norm_const, watson_norm_ratio):
        with pytest.raises(InputError):
            fn(3, -0.5)


def test_mean_resultant_closed_form_d3():
    # A_3(kappa) = coth(kappa) - 1/kappa
    for k in (0.5, 1.0, 2.0, 5.0):
        assert vmf_mean_resultant(3, k) == pytest.approx(1.0 / math.tanh(k) - 1.0 / k, rel=1e-12)


def test_mean_resultant_small_kappa_expansion():
    # A_d = kappa/d - kappa^3/(d^2 (d+2)) + O(kappa^5)
    for d in (2, 3, 5, 10):
        for k in np.geomspace(1e-3, 1e-1, 7):
            resid = vmf_mean_resultant(d, k) - k / d + k**3 / (d * d * (d + 2))
            assert abs(resid) <= 10.0 * k**5


def test_norm_const_closed_form_d3():
    # a_3(kappa) = 2 pi (e^k - e^-k)/k
    for k in (0.5, 1.0, 2.0):
        target = 2.0 * math.pi * (math.exp(k) - math.exp(-k)) / k
        assert vmf_norm_const(3, k) == pytest.approx(target, rel=1e-12)


def test_norm_const_tends_to_surface_area():
    for d in (2, 3, 5, 10):
        assert abs(vmf_norm_const(d, 1e-6) - surface_area(d)) <= 1e-10
        assert vmf_norm_ratio(d, 0.0) == 1.0
        assert watson_norm_ratio(d, 0.0) == 1.0


def test_watson_norm_ratio_is_kummer():
    for d in (2, 3, 5):
        for k in (0.5, 2.0):
            assert watson_norm_ratio(d, k) == pytest.approx(float(sps.hyp1f1(0.5, d / 2, k)), rel=1e-12)
            assert watson_norm_const(d, k) == pytest.approx(
                surface_area(d) * watson_norm_ratio(d, k), rel=1e-14
            )


def test_watson_mean_square_at_zero_and_slope():
    for d in (2, 3, 5, 10):
        assert watson_mean_square(d, 0.0) == pytest.approx(1.0 / d, abs=1e-15)
        # one-sided second-order stencil for D_d'(0+)
        h = 1e-5
        deriv = (
            -3.0 * watson_mean_square(d, 0.0)
            + 4.0 * watson_mean_square(d, h)
            - watson_mean_square(d, 2.0 * h)
        ) / (2.0 * h)
        target = 2.0 * (d - 1.0) / (d * d * (d + 2.0))
        assert deriv == pytest.approx(target, abs=1e-8)


def test_watson_mean_square_is_expectation():
    # quadrature oracle: E t^2 under density prop to exp(kappa t^2) (1-t^2)^{(d-3)/2}
    from scipy import integrate

    d, kappa = 5, 2.0
    w = lambda t: math.exp(kappa * t * t) * (1 - t * t) ** ((d - 3) / 2)
    num, _ = integrate.quad(lambda t: t * t * w(t), -1, 1)
    den, _ = integrate.quad(w, -1, 1)
    assert watson_mean_square(d, kappa) == pytest.approx(num / den, rel=1e-10)
