"""Zonal covariance kernels of the projection empirical process.

Under uniformity, the centered process of beta-th projection moments has a
Gaussian limit whose covariance between directions b and c depends only on
t = b.c (a zonal kernel).  This module evaluates that kernel through its
Legendre/spherical-harmonics spectral form and exposes the eigenvalue spectrum
of the associated integral operator.

The hand-written closed forms of the kernel for beta = 1..6 deliberately do
not live here: they are test oracles, while the single spectral code path
below covers every beta.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from ._errors import check_dimension, check_integer
from .legendre import (
    harmonic_dim,
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
        check_integer(self.beta, 1, "power")
        check_dimension(self.d)

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
        """Covariance matrix [rho(b_i . b_j)] for an (m, d) array of directions.

        The matrix is exactly symmetric: numpy forms the product of a
        contiguous array with its own transpose by ``syrk``, one triangle
        mirrored onto the other, and every later step is elementwise.
        """
        pts = np.ascontiguousarray(points, dtype=float)
        t = pts @ pts.T
        np.clip(t, -1.0, 1.0, out=t)
        # Horner's rule in place: the (m, m) matrix is the largest array of the
        # kernel limit route, and polyval's temporaries would hold another one
        coeffs = self._rho_monomial
        out = np.full_like(t, coeffs[-1])
        for a in coeffs[-2::-1]:
            out *= t
            out += a
        return out

