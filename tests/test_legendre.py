import math
from fractions import Fraction

import numpy as np
import pytest

from maxproj import InputError
from maxproj.geometry import surface_area, uniform_points
from maxproj.legendre import (
    harmonic_dim,
    legendre_eval,
    monomial_coefficients,
    power_expansion,
    psi,
    psi_exact,
)
from maxproj.rng import stream
from maxproj.samplers import MAX_PROFILE_ORDER
from oracles import check_expansion_nonnegative, legendre_norm2, weighted_inner

DIMS = (2, 3, 5, 10)


# --- independent oracles -----------------------------------------------------


def _coeffs_by_recurrence(d, kmax):
    """Monomial coefficients via (k+d-2) P_{k+1} = (2k+d-2) t P_k - k P_{k-1}."""
    polys = [[Fraction(1)], [Fraction(0), Fraction(1)]]
    for k in range(1, kmax):
        prev, cur = polys[k - 1], polys[k]
        nxt = [Fraction(0)] * (k + 2)
        for i, a in enumerate(cur):
            nxt[i + 1] += Fraction(2 * k + d - 2, k + d - 2) * a
        for i, a in enumerate(prev):
            nxt[i] -= Fraction(k, k + d - 2) * a
        polys.append(nxt)
    return polys


def _compositions(total):
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in _compositions(total - first):
            yield (first,) + rest


def _power_coeff_nested(d, k, l):
    """c_{k-2l, d}(k) by the nested composition sums over the a_{2l,k}."""

    def a(two_l, kk):
        return monomial_coefficients(d, kk)[kk - two_l]

    if l == 0:
        return 1 / a(0, k)
    total = Fraction(0)
    for comp in _compositions(l):
        r = len(comp)
        num = Fraction(1)
        drop = 0
        for ls in comp:
            num *= a(2 * ls, k - 2 * drop)
            drop += ls
        den = a(0, k)
        drop = 0
        for ls in comp:
            drop += ls
            den *= a(0, k - 2 * drop)
        total += Fraction((-1) ** r) * num / den
    return total


# --- harmonic-space dimensions ----------------------------------------------


def test_harmonic_dim_special_cases():
    for d in DIMS:
        assert harmonic_dim(d, 0) == 1
        assert harmonic_dim(d, 1) == d
        assert harmonic_dim(d, 2) == (d + 2) * (d - 1) // 2
    for k in range(1, 9):
        assert harmonic_dim(2, k) == 2
        assert harmonic_dim(3, k) == 2 * k + 1
    assert harmonic_dim(5, 2) == 14


# --- polynomial values --------------------------------------------------------


def test_low_order_values():
    t = np.linspace(-1, 1, 21)
    for d in DIMS:
        np.testing.assert_allclose(legendre_eval(d, 1, t), t, atol=1e-15)
    np.testing.assert_allclose(legendre_eval(3, 2, t), (3 * t**2 - 1) / 2, atol=1e-15)


def test_value_one_at_right_endpoint():
    for d in DIMS:
        for k in range(13):
            assert sum(monomial_coefficients(d, k)) == 1


def test_chebyshev_identity_on_circle():
    t = np.linspace(-1, 1, 101)
    for k in range(9):
        np.testing.assert_allclose(
            legendre_eval(2, k, t), np.cos(k * np.arccos(t)), atol=1e-12
        )


def test_bounded_by_one_on_grid():
    t = np.linspace(-1, 1, 1001)
    # every order a LegendreProfile accepts keeps the float form within 1e-10 of [-1, 1]
    for dims, orders, tol in ((DIMS, range(13), 1e-12),
                              (range(2, 41), range(1, MAX_PROFILE_ORDER + 1), 5.9e-11)):
        for d in dims:
            for k in orders:
                assert np.max(np.abs(legendre_eval(d, k, t))) <= 1.0 + tol, (d, k)


def test_parity_exact_in_rationals():
    for d in DIMS:
        for k in range(13):
            coeffs = monomial_coefficients(d, k)
            for i, a in enumerate(coeffs):
                if (i + k) % 2 == 1:
                    assert a == 0


def test_monomial_coefficients_match_recurrence_exactly():
    for d in DIMS:
        oracle = _coeffs_by_recurrence(d, 12)
        for k in range(13):
            assert list(monomial_coefficients(d, k)) == oracle[k]


def test_domain_error_outside_interval():
    with pytest.raises(InputError):
        legendre_eval(3, 2, 1.001)


# --- power expansions ----------------------------------------------------------


def test_power_expansion_tabled_cases():
    for d in DIMS:
        e3 = power_expansion(d, 3)
        assert e3[3] == Fraction(d - 1, d + 2)
        assert e3[1] == Fraction(3, d + 2)
        assert e3[0] == 0 and e3[2] == 0
        e2 = power_expansion(d, 2)
        assert e2[2] == Fraction(d - 1, d)
        assert e2[0] == Fraction(1, d)
    assert power_expansion(7, 0) == (Fraction(1),)


def test_power_expansion_parity_and_psi():
    for d in DIMS:
        for m in range(13):
            exp = power_expansion(d, m)
            assert exp[0] == psi_exact(d, m)
            for j, c in enumerate(exp):
                if (j + m) % 2 == 1:
                    assert c == 0


def test_power_expansion_matches_nested_sums():
    for d in DIMS:
        for k in range(7):
            exp = power_expansion(d, k)
            for l in range(k // 2 + 1):
                assert exp[k - 2 * l] == _power_coeff_nested(d, k, l)


def test_reconstruction_identity_on_grid():
    t = np.linspace(-1, 1, 101)
    for d in DIMS:
        for m in range(9):
            total = np.zeros_like(t)
            for j, c in enumerate(power_expansion(d, m)):
                if c:
                    total += float(c) * legendre_eval(d, j, t)
            np.testing.assert_allclose(total, t**m, atol=1e-12)


def test_reconstruction_identity_exact_at_rational_points():
    for d in (2, 5):
        for m in range(9):
            for t in (Fraction(0), Fraction(1, 2), Fraction(-1, 3), Fraction(1)):
                total = Fraction(0)
                for j, c in enumerate(power_expansion(d, m)):
                    if c:
                        poly = monomial_coefficients(d, j)
                        total += c * sum(a * t**i for i, a in enumerate(poly))
                assert total == t**m


def test_expansion_nonnegativity_scan():
    assert check_expansion_nonnegative() == []


# --- projection moments ---------------------------------------------------------


def test_psi_values():
    for d in DIMS:
        assert psi(d, 1) == 0.0
        assert psi(d, 3) == 0.0
        assert psi(d, 2) == pytest.approx(1.0 / d, abs=1e-15)
        assert psi(d, 4) == pytest.approx(3.0 / (d * (d + 2)), abs=1e-15)


def test_psi_matches_gamma_formula():
    for d in DIMS:
        for beta in range(0, 13, 2):
            target = (
                math.gamma((beta + 1) / 2.0)
                * math.gamma(d / 2.0)
                / (math.sqrt(math.pi) * math.gamma((beta + d) / 2.0))
            )
            assert psi(d, beta) == pytest.approx(target, abs=1e-14)


def test_psi_monte_carlo():
    n = 1_000_000
    for d, beta in ((2, 4), (3, 2), (5, 6)):
        x = uniform_points(d, n, stream(2024, d, beta))
        proj = x[:, 0] ** beta
        se = proj.std(ddof=1) / math.sqrt(n)
        assert abs(proj.mean() - psi(d, beta)) <= 4.0 * se


# --- weighted inner product ------------------------------------------------------


@pytest.mark.parametrize("d", (2, 3, 5))
def test_orthogonality(d):
    pairs = [(0, 2), (1, 3), (2, 4), (1, 2)]
    for k, l in pairs:
        val = weighted_inner(
            lambda t: legendre_eval(d, k, t), lambda t: legendre_eval(d, l, t), d
        )
        assert abs(val) <= 1e-10


@pytest.mark.parametrize("d", (2, 3, 5))
def test_squared_norm(d):
    for k in (0, 1, 3, 5):
        val = weighted_inner(
            lambda t: legendre_eval(d, k, t), lambda t: legendre_eval(d, k, t), d
        )
        assert val == pytest.approx(legendre_norm2(d, k), abs=1e-10)
        target = surface_area(d) / (harmonic_dim(d, k) * surface_area(d - 1))
        assert val == pytest.approx(target, abs=1e-10)


def test_constant_inner_product_d3():
    assert weighted_inner(lambda t: 1.0, lambda t: 1.0, 3) == pytest.approx(2.0, abs=1e-12)
