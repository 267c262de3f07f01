"""Independent oracles that only the tests call.

Each one computes a quantity of the package by a second route: the exact
shift amplitude of the profile class, surface quadrature on S^1 and S^2,
the weighted Legendre inner product, the exact moment series of the
projection integrals, the closed-form vMF mean resultant and Watson second
moment, a Haar rotation for invariance checks and the plain
Kolmogorov-Smirnov distance that ``ca_statistic`` vectorizes.  Tests import
them as ``from oracles import ...``.
"""

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from maxproj import InputError, NumericalError
from maxproj.geometry import as_unit_vector, surface_area
from maxproj.legendre import (
    harmonic_dim,
    legendre_eval,
    monomial_coefficients,
    power_expansion,
    psi_exact,
)
from maxproj.rng import as_generator
from maxproj.statistics import projection_cdf

# ---------------------------------------------------------------------------
# Legendre machinery

#: largest exactly-tabulated order; higher orders are out of scope
MAX_ORDER = 12

#: absolute and relative target of the weighted_inner quadrature
_INNER_TOL = 1e-12


def weighted_inner(f, g, d):
    """Weighted inner product int_{-1}^{1} f g (1-t^2)^{(d-3)/2} dt.

    For d = 2 the weight is singular at the endpoints, so the integral is
    evaluated through the substitution t = cos(phi).  Raises NumericalError
    if the quadrature cannot reach ``_INNER_TOL``.
    """
    from scipy import integrate

    if d < 2:
        raise InputError(f"dimension must be >= 2, got {d}")
    if d == 2:
        def integrand(phi):
            t = math.cos(phi)
            return f(t) * g(t)

        lo, hi = 0.0, math.pi
    else:
        p = (d - 3) / 2.0

        def integrand(t):
            return f(t) * g(t) * (1.0 - t * t) ** p

        lo, hi = -1.0, 1.0
    value, err = integrate.quad(integrand, lo, hi, epsabs=_INNER_TOL, epsrel=_INNER_TOL, limit=200)
    if err > max(_INNER_TOL, 1e-10 * abs(value)) * 50:
        raise NumericalError(f"quadrature reached only {err:.2e} (target {_INNER_TOL:.2e})")
    return value


def legendre_norm2(d, k):
    """<P_k, P_k> = |S^{d-1}| / (nu_d(k) |S^{d-2}|), exact up to Gamma calls."""
    return math.sqrt(math.pi) * math.gamma((d - 1) / 2.0) / (harmonic_dim(d, k) * math.gamma(d / 2.0))


def check_expansion_nonnegative():
    """Scan power expansions, d = 2..25 and m <= MAX_ORDER, for negative coefficients.

    Non-negativity of the c_j is expected but unproven; this returns the
    list of violations (empty so far for every scanned combination) instead
    of assuming it.
    """
    violations = []
    for d in range(2, 26):
        for m in range(MAX_ORDER + 1):
            for j, cj in enumerate(power_expansion(d, m)):
                if cj < 0:
                    violations.append((d, m, j, cj))
    return violations


@lru_cache(maxsize=None)
def delta_ratio(d, j, l):
    """<P_j, t^l> / <P_0, P_0>, the normalized projection of t^l on P_j, exact."""
    total = Fraction(0)
    for i, a in enumerate(monomial_coefficients(d, j)):
        if a:
            total += a * psi_exact(d, l + i)
    return total


# ---------------------------------------------------------------------------
# shifts and surface quadrature (d = 2, 3)


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
    quadrature; rhs: |S^{d-2}| <P_k, profile> P_k(u.theta).  Restricted to
    d in {2, 3} and k <= 8, where the quadrature is cheap and accurate.
    """
    if d not in (2, 3):
        raise InputError("identity check restricted to d in {2, 3}")
    if k > 8:
        raise InputError("identity check restricted to orders k <= 8")
    u = as_unit_vector(u)
    theta = np.eye(d)[-1] if theta is None else as_unit_vector(theta)
    pts, w = sphere_quadrature(d)
    pu = np.clip(pts @ u, -1.0, 1.0)
    pt = np.clip(pts @ theta, -1.0, 1.0)
    lhs = float(np.sum(w * profile(pu) * legendre_eval(d, k, pt)))
    inner = weighted_inner(lambda t: legendre_eval(d, k, t), profile, d)
    rhs = surface_area(d - 1) * inner * float(legendre_eval(d, k, float(u @ theta)))
    return lhs, rhs


# ---------------------------------------------------------------------------
# concentration families


def vmf_mean_resultant(d, kappa):
    """A_d(kappa) = E theta . X = I_{d/2}(kappa) / I_{d/2-1}(kappa) under vMF(theta, kappa)."""
    from scipy import special as sps

    return float(sps.ive(d / 2.0, kappa) / sps.ive(d / 2.0 - 1.0, kappa))


def watson_mean_square(d, kappa):
    """D_d(kappa) = E (theta . X)^2 = M(3/2, d/2+1, kappa) / (d M(1/2, d/2, kappa)) under Watson."""
    from scipy import special as sps

    return float(sps.hyp1f1(1.5, d / 2.0 + 1.0, kappa) / (d * sps.hyp1f1(0.5, d / 2.0, kappa)))


# ---------------------------------------------------------------------------
# invariance and goodness of fit


def random_rotation(d, rng):
    """A Haar-random rotation matrix from SO(d) (QR of a Gaussian matrix)."""
    rng = as_generator(rng)
    a = rng.standard_normal((d, d))
    q, r = np.linalg.qr(a)
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def ks_statistic(values, d):
    """One-sample Kolmogorov-Smirnov sup distance against F_{d-1}."""
    v = np.sort(np.asarray(values, dtype=float))
    n = v.shape[0]
    f = projection_cdf(d, v)
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - f), np.max(f - (i - 1) / n)))
