import math
from fractions import Fraction

import numpy as np
import pytest

from maxproj import InputError
from maxproj.geometry import surface_area, uniform_points
from maxproj.kernels import ZonalKernel, shift_amplitude_exact
from maxproj.legendre import harmonic_dim, legendre_eval, power_expansion, psi
from maxproj.limits import harmonic_basis
from maxproj.rng import stream
from oracles import funk_hecke_check, shift_value

DIMS = (2, 3, 5, 10)


# closed-form covariance kernels, used only as oracles
def rho_closed(beta, d, t):
    t = np.asarray(t, dtype=float)
    prod = lambda n: math.prod(d + 2 * j for j in range(n))
    if beta == 1:
        return t / d
    if beta == 2:
        return (2 * t**2 + 1) / (d * (d + 2)) - 1 / d**2
    if beta == 3:
        return (6 * t**3 + 9 * t) / prod(3)
    if beta == 4:
        return (24 * t**4 + 72 * t**2 + 9) / prod(4) - 9 / (d**2 * (d + 2) ** 2)
    if beta == 5:
        return (120 * t**5 + 600 * t**3 + 225 * t) / prod(5)
    if beta == 6:
        return (720 * t**6 + 5400 * t**4 + 4050 * t**2 + 225) / prod(6) - 225 / (
            d**2 * (d + 2) ** 2 * (d + 4) ** 2
        )
    raise ValueError(beta)


def eigenvalues_closed(beta, d):
    prod = lambda n: math.prod(d + 2 * j for j in range(n))
    return {
        1: {1: 1 / d**2},
        2: {2: (2 / prod(2)) ** 2},
        3: {1: (3 / prod(2)) ** 2, 3: (6 / prod(3)) ** 2},
        4: {2: (12 / prod(3)) ** 2, 4: (24 / prod(4)) ** 2},
        5: {1: (15 / prod(3)) ** 2, 3: (60 / prod(4)) ** 2, 5: (120 / prod(5)) ** 2},
        6: {2: (90 / prod(4)) ** 2, 4: (360 / prod(5)) ** 2, 6: (720 / prod(6)) ** 2},
    }[beta]


def test_rho_matches_closed_forms():
    rng = np.random.default_rng(0)
    for beta in range(1, 7):
        for d in DIMS:
            t = rng.uniform(-1, 1, 50)
            np.testing.assert_allclose(
                ZonalKernel(beta, d).rho(t), rho_closed(beta, d, t), atol=1e-12
            )


def test_eta_examples():
    # the raw product moment eta(t) = E (b.U)^beta (c.U)^beta is rho(t) + psi^2
    k = ZonalKernel(1, 5)
    t = np.linspace(-1, 1, 11)
    np.testing.assert_allclose(k.rho(t) + psi(5, 1) ** 2, t / 5.0, atol=1e-15)
    # at t = 1 every polynomial equals one
    k6 = ZonalKernel(6, 3)
    weights = sum(float(c * c) / harmonic_dim(3, j) for j, c in enumerate(power_expansion(3, 6)))
    assert k6.rho(1.0) + psi(3, 6) ** 2 == pytest.approx(weights, abs=1e-14)
    # beta=2, d=3: eta(0) = rho(0) + psi^2 = 1/15
    assert ZonalKernel(2, 3).rho(0.0) + psi(3, 2) ** 2 == pytest.approx(1.0 / 15.0, abs=1e-14)
    with pytest.raises(InputError):
        k.rho(1.5)


def test_spectrum_matches_closed_lists():
    for beta in range(1, 7):
        for d in DIMS:
            eigenvalues = ZonalKernel(beta, d).eigenvalues
            closed = eigenvalues_closed(beta, d)
            assert len(eigenvalues) == beta + 1
            for k in range(beta + 1):
                assert float(eigenvalues[k]) == pytest.approx(closed.get(k, 0.0), abs=1e-14)
            assert eigenvalues[0] == 0


def test_spectrum_trace_identity():
    for beta in range(1, 7):
        for d in DIMS:
            kern = ZonalKernel(beta, d)
            assert kern.rho(1.0) == pytest.approx(float(kern.total_variance), abs=1e-12)
            assert kern.total_variance == sum(
                lam * harmonic_dim(d, k) for k, lam in enumerate(kern.eigenvalues)
            )


def test_spectrum_beta2_d3_value():
    assert ZonalKernel(2, 3).eigenvalues[2] == Fraction(2, 15) ** 2


def test_kernel_bounded_and_zonal():
    rng = np.random.default_rng(3)
    for beta in (1, 4, 6):
        k = ZonalKernel(beta, 3)
        t = rng.uniform(-1, 1, 200)
        assert np.max(np.abs(k.rho(t))) <= 1.0
        # gram uses only pairwise cosines
        pts = uniform_points(3, 8, stream(4))
        g = k.gram(pts)
        np.testing.assert_allclose(g, g.T, atol=1e-15)
        np.testing.assert_allclose(np.diag(g), k.rho(1.0), atol=1e-12)


def test_gram_positive_semidefinite():
    for trial in range(50):
        beta = 1 + trial % 6
        d = DIMS[trial % 4]
        pts = uniform_points(d, 20, stream(99, trial))
        g = ZonalKernel(beta, d).gram(pts)
        assert np.linalg.eigvalsh(g).min() >= -1e-9


@pytest.mark.parametrize("d", (2, 3))
def test_mercer_reconstruction(d):
    # |S| sum_k lam_k sum_j phi_kj(b) phi_kj(c) = rho(b . c)
    for beta in (1, 2, 3, 6):
        kern = ZonalKernel(beta, d)
        orders = range(beta + 1)
        pts = uniform_points(d, 12, stream(7, beta, d))
        phi = harmonic_basis(d, orders, pts)
        lam = np.array([float(kern.eigenvalues[k]) for k in orders
                        for _ in range(harmonic_dim(d, k))])
        lhs = surface_area(d) * (phi * lam) @ phi.T
        rhs = kern.gram(pts)
        np.testing.assert_allclose(lhs, rhs, atol=1e-8)


def test_shift_amplitude_cases():
    # amp = c_{m,d}(beta) / nu_d(m); vanishing cases by parity and order
    assert shift_amplitude_exact(3, 3, 1) == Fraction(3, 5) / 3
    assert shift_amplitude_exact(3, 3, 2) == 0
    assert shift_amplitude_exact(2, 4, 5) == 0
    theta = np.array([0.0, 0.0, 1.0])
    assert shift_value(3, 3, 1, theta, theta) == pytest.approx(0.2, abs=1e-15)


def test_shift_function_profile():
    theta = np.array([1.0, 0.0])
    b = uniform_points(2, 40, stream(12))
    t = b @ theta
    amplitude = float(shift_amplitude_exact(4, 2, 2))
    np.testing.assert_allclose(
        shift_value(4, 2, 2, theta, b), amplitude * legendre_eval(2, 2, np.clip(t, -1, 1)),
        atol=1e-14,
    )
    assert np.all(shift_value(3, 2, 6, theta, b) == 0.0)


def test_funk_hecke_identity_for_matched_profile():
    for d in (2, 3):
        for k in (1, 2, 4):
            u = np.eye(d)[0]
            lhs, rhs = funk_hecke_check(d, k, lambda t: legendre_eval(d, k, t), u, theta=u)
            target = surface_area(d) / harmonic_dim(d, k)
            assert lhs == pytest.approx(target, abs=1e-8)
            assert rhs == pytest.approx(target, abs=1e-8)


def test_funk_hecke_constant_profile_vanishes():
    u = np.array([0.0, 1.0])
    lhs, rhs = funk_hecke_check(2, 1, lambda t: np.ones_like(t), u)
    assert abs(lhs) <= 1e-10 and abs(rhs) <= 1e-10


def test_funk_hecke_power_profile_matches_shift():
    for beta, m, d in ((3, 1, 3), (4, 2, 2)):
        theta = np.eye(d)[0]
        u = uniform_points(d, 1, stream(5, beta, m))[0]
        lhs, rhs = funk_hecke_check(d, m, lambda t: t**beta, u, theta=theta)
        target = surface_area(d) * shift_value(beta, d, m, theta, u)
        assert rhs == pytest.approx(target, abs=1e-8)
        assert lhs == pytest.approx(target, abs=1e-8)


def test_funk_hecke_domain_restrictions():
    with pytest.raises(InputError):
        funk_hecke_check(5, 1, lambda t: t, np.eye(5)[0])
    with pytest.raises(InputError):
        funk_hecke_check(3, 9, lambda t: t, np.eye(3)[0])
