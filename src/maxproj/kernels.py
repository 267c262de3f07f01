"""Zonal covariance kernels of the projection empirical process.

Under uniformity, the centered process of beta-th projection moments has a
Gaussian limit whose covariance between directions b and c depends only on
t = b.c (a zonal kernel).  This module evaluates that kernel through its
Legendre/spherical-harmonics spectral form, exposes the eigenvalue spectrum of
the associated integral operator, the deterministic shift picked up under
local (1 + h/sqrt(n)) alternatives, and a surface-integral identity checker
used as a validation oracle.

The hand-written closed forms of the kernel for beta = 1..6 deliberately do
not live here: they are test oracles, while the single spectral code path
below covers every beta.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from ._errors import InputError
from .geometry import as_unit_vector, surface_area
from .legendre import (
    harmonic_dim,
    horner,
    legendre_eval,
    monomial_coefficients,
    polynomial_eval,
    power_expansion,
    psi,
)


@dataclass(frozen=True)
class ZonalKernel:
    """The covariance kernel rho(t) of the order-beta field on S^{d-1}, and its spectrum.

    ``eigenvalues[k]``, k = 0..beta, are the exact (Fraction) eigenvalues
    (c_k / nu_d(k))^2 of the kernel's integral operator, with c_k the
    coefficients of :func:`power_expansion`; entries with k + beta odd and
    k = 0 vanish.  ``total_variance`` is the exact on-diagonal value
    rho(1) = sum_k lambda_k nu_d(k).
    """

    beta: int
    d: int

    def __post_init__(self):
        if self.beta < 1:
            raise InputError(f"beta must be >= 1, got {self.beta}")
        if self.d < 2:
            raise InputError(f"dimension must be >= 2, got {self.d}")

    @cached_property
    def eigenvalues(self):
        c = power_expansion(self.d, self.beta)
        return (Fraction(0),) + tuple(
            (c[k] / harmonic_dim(self.d, k)) ** 2 for k in range(1, self.beta + 1)
        )

    @cached_property
    def total_variance(self):
        return sum(lam * harmonic_dim(self.d, k) for k, lam in enumerate(self.eigenvalues))

    @cached_property
    def _rho_monomial(self):
        # dense monomial coefficients of rho = sum_j (c_j^2 / nu_d(j)) P_j - psi^2
        coeffs = np.zeros(self.beta + 1)
        for j, c in enumerate(power_expansion(self.d, self.beta)):
            w = float(c * c / harmonic_dim(self.d, j))
            if w:
                for i, a in enumerate(monomial_coefficients(self.d, j)):
                    coeffs[i] += w * float(a)
        coeffs[0] -= psi(self.d, self.beta) ** 2
        return coeffs

    def rho(self, t):
        """Covariance kernel E (b.U)^beta (c.U)^beta - psi^2 at t = b.c in [-1, 1]."""
        return polynomial_eval(self._rho_monomial, t)

    def gram(self, points):
        """Covariance matrix [rho(b_i . b_j)] for an (m, d) array of directions."""
        pts = np.asarray(points, dtype=float)
        return horner(self._rho_monomial, np.clip(pts @ pts.T, -1.0, 1.0))


def shift_amplitude_exact(beta, d, m):
    """Exact shift coefficient c_{m,d}(beta) / nu_d(m).

    Zero when m > beta or beta + m is odd: those perturbation orders are
    invisible to the order-beta statistic.
    """
    if m < 0:
        raise InputError(f"order must be >= 0, got {m}")
    if m > beta or (beta + m) % 2 == 1:
        return Fraction(0)
    return power_expansion(d, beta)[m] / harmonic_dim(d, m)


def shift_value(beta, d, m, theta, b):
    """Limit shift amp * P_m(theta.b) at directions ``b`` under a local order-m perturbation.

    ``amp`` is :func:`shift_amplitude_exact`; ``b`` is one direction or an
    array of them along its last axis.
    """
    theta = as_unit_vector(theta)
    b = np.asarray(b, dtype=float)
    amplitude = float(shift_amplitude_exact(beta, d, m))
    if amplitude == 0.0:
        return np.zeros(b.shape[:-1]) if b.ndim > 1 else 0.0
    t = np.clip(b @ theta, -1.0, 1.0)
    return amplitude * legendre_eval(d, m, t)


# ---------------------------------------------------------------------------
# surface quadrature (d = 2, 3) and the projection-integral identity oracle


#: Gauss-Legendre polar nodes and equispaced azimuth nodes of sphere_quadrature
_N_POLAR = 96
_N_AZIMUTH = 192


def sphere_quadrature(d):
    """Product quadrature nodes/weights for integrals over S^{d-1}, d in {2, 3}.

    Exact (to rounding) for polynomial integrands of the degrees used here.
    Returns (points, weights) with sum(w_i f(x_i)) ~= integral f d(sigma).
    """
    if d == 2:
        phi = 2.0 * math.pi * np.arange(_N_AZIMUTH) / _N_AZIMUTH
        pts = np.column_stack([np.cos(phi), np.sin(phi)])
        w = np.full(_N_AZIMUTH, 2.0 * math.pi / _N_AZIMUTH)
        return pts, w
    if d == 3:
        t, wt = np.polynomial.legendre.leggauss(_N_POLAR)
        phi = 2.0 * math.pi * np.arange(_N_AZIMUTH) / _N_AZIMUTH
        r = np.sqrt(1.0 - t**2)
        x = r[:, None] * np.cos(phi)[None, :]
        y = r[:, None] * np.sin(phi)[None, :]
        z = np.broadcast_to(t[:, None], x.shape)
        pts = np.column_stack([x.ravel(), y.ravel(), z.ravel()])
        w = np.repeat(wt, _N_AZIMUTH) * (2.0 * math.pi / _N_AZIMUTH)
        return pts, w
    raise InputError("surface quadrature implemented only for d in {2, 3}")


def funk_hecke_check(d, k, profile, u, theta=None):
    """Two routes through the projection-integral identity.

    lhs: the surface integral of profile(u.x) * P_k(theta.x) by product
    quadrature; rhs: |S^{d-2}| <P_k, profile> P_k(u.theta).  Used only as a
    validation oracle, hence the restriction to d in {2, 3} and k <= 8 where
    the quadrature is cheap and accurate.
    """
    if d not in (2, 3):
        raise InputError("identity check restricted to d in {2, 3}")
    if k > 8:
        raise InputError("identity check restricted to orders k <= 8")
    from .legendre import weighted_inner

    u = as_unit_vector(u)
    theta = np.eye(d)[-1] if theta is None else as_unit_vector(theta)
    pts, w = sphere_quadrature(d)
    pu = np.clip(pts @ u, -1.0, 1.0)
    pt = np.clip(pts @ theta, -1.0, 1.0)
    lhs = float(np.sum(w * profile(pu) * legendre_eval(d, k, pt)))
    inner = weighted_inner(lambda t: legendre_eval(d, k, t), profile, d)
    rhs = surface_area(d - 1) * inner * float(legendre_eval(d, k, float(u @ theta)))
    return lhs, rhs
