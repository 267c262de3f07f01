"""d-dimensional Legendre polynomials and projection moments.

The degree-k Legendre polynomial on [-1, 1] attached to S^{d-1} is the unique
polynomial P_k with P_k(1) = 1 that represents order-k zonal functions; for
d = 2 it reduces to the Chebyshev polynomial T_k and for d = 3 to the classical
Legendre polynomial.  Everything here is built from exact rational monomial
coefficients (``fractions.Fraction``) and converted to float only at
evaluation time: the expansion coefficients that express powers t^m in the
Legendre basis suffer heavy cancellation in floating point, while the rational
route is exact and cheap for the orders (<= 20) this package uses.

Key objects
-----------
``monomial_coefficients(d, k)``  exact coefficients of P_k
``power_expansion(d, m)``        exact coefficients of t^m = sum_j c_j P_j
``polynomial_eval(coeffs, t)``   Horner evaluation (``numpy`` ``polyval``) of float
                                 monomial coefficients on [-1, 1]
``psi(d, beta)``                 moment of a fixed projection of a uniform
                                 direction, E (b.U)^beta
``harmonic_dim(d, k)``           dimension of the order-k spherical-harmonic
                                 space on S^{d-1}
"""

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from ._errors import InputError, NumericalError

def harmonic_dim(d, k):
    """Dimension nu_d(k) of the space of order-k spherical harmonics on S^{d-1}."""
    if d < 2:
        raise InputError(f"dimension must be >= 2, got {d}")
    if k < 0:
        raise InputError(f"order must be >= 0, got {k}")
    second = math.comb(d + k - 3, k - 2) if k >= 2 else 0
    return math.comb(d + k - 1, k) - second


@lru_cache(maxsize=None)
def monomial_coefficients(d, k):
    """Exact monomial coefficients of P_k for S^{d-1}.

    Returns a tuple ``a`` of k+1 Fractions with P_k(t) = sum_i a[i] t^i.
    Coefficients with index of the wrong parity are zero.
    """
    if d < 2:
        raise InputError(f"dimension must be >= 2, got {d}")
    if k < 0:
        raise InputError(f"order must be >= 0, got {k}")
    if k == 0:
        return (Fraction(1),)
    coeffs = [Fraction(0)] * (k + 1)
    denom = Fraction(1)
    for i in range(k - 1):
        denom *= d - 1 + i
    for l in range(k // 2 + 1):
        num = Fraction(1)
        for i in range(k - l - 1):
            num *= d + 2 * i
        coeffs[k - 2 * l] = (
            Fraction((-1) ** l, 2**l)
            * Fraction(math.factorial(k), math.factorial(l) * math.factorial(k - 2 * l))
            * num
            / denom
        )
    return tuple(coeffs)


@lru_cache(maxsize=None)
def _monomial_floats(d, k):
    return np.array([float(a) for a in monomial_coefficients(d, k)])


def polynomial_eval(coeffs, t):
    """Float monomial coefficients ``coeffs`` evaluated on scalars or arrays in [-1, 1]."""
    t = np.asarray(t, dtype=float)
    if np.any(np.abs(t) > 1.0 + 1e-12):
        raise InputError("argument outside [-1, 1]")
    out = np.polynomial.polynomial.polyval(t, coeffs)
    return out if out.ndim else float(out)


def legendre_eval(d, k, t):
    """Evaluate P_k on scalars or arrays; the domain is [-1, 1]."""
    return polynomial_eval(_monomial_floats(d, k), t)


@lru_cache(maxsize=None)
def power_expansion(d, m):
    """Exact coefficients c_j, j = 0..m, of t^m = sum_j c_j P_j(t), as a tuple of Fractions.

    Found by an exact triangular solve.  The coefficients vanish whenever
    j+m is odd, and c_0 equals psi_d(m).
    """
    if m < 0:
        raise InputError(f"power must be >= 0, got {m}")
    residual = [Fraction(0)] * (m + 1)
    residual[m] = Fraction(1)
    c = [Fraction(0)] * (m + 1)
    for j in range(m, -1, -1):
        pj = monomial_coefficients(d, j)
        cj = residual[j] / pj[j]
        if cj:
            for i, a in enumerate(pj):
                residual[i] -= cj * a
        c[j] = cj
    if any(residual):
        raise NumericalError("triangular solve left a nonzero residual")
    return tuple(c)


def psi_exact(d, beta):
    """E (b.U)^beta for uniform U, as an exact Fraction (0 for odd beta)."""
    if beta < 0:
        raise InputError(f"power must be >= 0, got {beta}")
    if beta % 2 == 1:
        return Fraction(0)
    s = beta // 2
    num = 1
    for i in range(1, 2 * s, 2):
        num *= i
    den = 1
    for i in range(s):
        den *= d + 2 * i
    return Fraction(num, den)


def psi(d, beta):
    """Float version of :func:`psi_exact`."""
    return float(psi_exact(d, beta))
