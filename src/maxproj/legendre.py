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
``monomial_coefficients(d, k)``  exact coefficients of P_k, by the three-term recurrence
``power_expansion(d, m)``        exact c_j of t^m = sum_j c_j P_j, by orthogonality
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

from ._errors import InputError, check_dimension, check_integer


def harmonic_dim(d, k):
    """Dimension nu_d(k) of the space of order-k spherical harmonics on S^{d-1}."""
    check_dimension(d)
    check_integer(k, 0, "order")
    second = math.comb(d + k - 3, k - 2) if k >= 2 else 0
    return math.comb(d + k - 1, k) - second


# typed caches: a float d equal to a cached int d still reaches check_dimension
@lru_cache(maxsize=None, typed=True)
def monomial_coefficients(d, k):
    """Exact monomial coefficients of P_k for S^{d-1}.

    Returns a tuple ``a`` of k+1 Fractions with P_k(t) = sum_i a[i] t^i, from P_0 = 1,
    P_1 = t and (j+d-2) P_{j+1} = (2j+d-2) t P_j - j P_{j-1}.  Coefficients with
    index of the wrong parity are zero.
    """
    check_dimension(d)
    check_integer(k, 0, "order")
    d = int(d)  # a numpy integer would overflow in the Fraction products
    prev, cur = [Fraction(1)], [Fraction(0), Fraction(1)]
    for j in range(1, k):
        up, down = Fraction(2 * j + d - 2, j + d - 2), Fraction(j, j + d - 2)
        # t P_j shifts the coefficients one place up; P_{j-1} is two places shorter
        prev, cur = cur, [up * a - down * b for a, b in zip([0, *cur], [*prev, 0, 0])]
    return tuple(prev if k == 0 else cur)


@lru_cache(maxsize=None, typed=True)
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


@lru_cache(maxsize=None, typed=True)
def power_expansion(d, m):
    """Exact coefficients c_j, j = 0..m, of t^m = sum_j c_j P_j(t), as a tuple of Fractions.

    By orthogonality under the projection law of a uniform direction,
    c_j = nu_d(j) E[t^m P_j(t)] = nu_d(j) sum_i a_i psi_d(m+i), with a the coefficients
    of P_j.  The coefficients vanish whenever j+m is odd, and c_0 equals psi_d(m).
    """
    check_dimension(d)
    check_integer(m, 0, "power")
    moments = [psi_exact(d, m + i) for i in range(m + 1)]
    return tuple(
        harmonic_dim(d, j) * sum(a * moments[i] for i, a in enumerate(monomial_coefficients(d, j)))
        for j in range(m + 1)
    )


def psi_exact(d, beta):
    """E (b.U)^beta for uniform U, as an exact Fraction (0 for odd beta)."""
    check_dimension(d)
    check_integer(beta, 0, "power")
    if beta % 2 == 1:
        return Fraction(0)
    s = beta // 2
    # range yields Python ints, so a numpy integer d cannot overflow the product
    return Fraction(math.prod(range(1, 2 * s, 2)), math.prod(range(d, d + 2 * s, 2)))


def psi(d, beta):
    """Float version of :func:`psi_exact`."""
    return float(psi_exact(d, beta))
