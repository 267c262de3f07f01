"""Local Bahadur efficiency of the maximal-projection statistics.

For a concentration family f(.|kappa) shrinking to uniformity, the
(approximate) slope of the square-root statistic is

    slope(kappa) = max_b gamma_kappa(b)^2 / sum_{j=1..beta} lambda_j nu_d(j),

with gamma_kappa(b) the deviation of the beta-th projection moment from its
uniform value, and the local asymptotic relative efficiency against the
likelihood-ratio test is the kappa -> 0 limit of slope / (2 KL(kappa, 0)).
For the three families treated here the limit has the closed form
lambda_k nu_d(k) / sum lambda_j nu_d(j), where k = 1 (von Mises-Fisher),
k = 2 (Watson) and k = m (the order-m Legendre-profile class).

gamma_kappa is zonal in s = cos(angle to the symmetry axis), so maxima are
taken over a dense grid of s in [-1, 1] (or over the cosines of a supplied
direction cover).  The exponential families use the moment series in kappa
with exact rational projection integrals of t^l against each Legendre
polynomial; the profile class is exactly linear in kappa.
"""

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from ._errors import InputError, NumericalError
from .kernels import ZonalKernel, shift_amplitude_exact
from .legendre import (
    harmonic_dim,
    legendre_eval,
    monomial_coefficients,
    power_expansion,
    psi,
    psi_exact,
)
from .special import vmf_mean_resultant, vmf_norm_ratio, watson_mean_square, watson_norm_ratio

_SERIES_TOL = 1e-14
_SERIES_CAP = 10_000
#: cosines of the dense grid over which gamma_kappa is maximized
_GRID_SIZE = 4001

ALTERNATIVES = ("vmf", "watson", "lp")


def _check_alt(alt, m):
    if alt not in ALTERNATIVES:
        raise InputError(f"alternative must be one of {ALTERNATIVES}, got {alt!r}")
    if alt == "lp" and (m is None or m < 1):
        raise InputError("the profile class needs an order m >= 1")


def _order(alt, m):
    """The harmonic order k the alternative class perturbs: 1 (vMF), 2 (Watson) or m."""
    _check_alt(alt, m)
    return 1 if alt == "vmf" else 2 if alt == "watson" else m


# ---------------------------------------------------------------------------
# Kullback-Leibler numbers


def kl_divergence(alt, d, kappa, m=None):
    """KL(kappa, 0) against uniformity for the given alternative class.

    The exponential families use their closed forms; the profile class is
    integrated directly with the linear term removed analytically (it
    integrates to zero), which keeps small-kappa values cancellation-free.
    """
    _check_alt(alt, m)
    if kappa <= 0:
        raise InputError("kappa must be > 0")
    if alt == "vmf":
        return vmf_mean_resultant(d, kappa) * kappa - math.log(vmf_norm_ratio(d, kappa))
    if alt == "watson":
        return watson_mean_square(d, kappa) * kappa - math.log(watson_norm_ratio(d, kappa))
    if kappa > 1.0:
        raise InputError("profile-class kappa must lie in (0, 1]")
    from scipy import integrate

    def bump(x):
        # (1+x) log(1+x) - x; the linear term of the integrand is removed
        # analytically (it integrates to zero), so small kappa stays exact
        y = 1.0 + x
        if y <= 0.0:
            return 1.0
        return y * math.log(y) - x

    if d == 2:
        def integrand(phi):
            return bump(kappa * float(legendre_eval(d, m, math.cos(phi))))

        val, err = integrate.quad(integrand, 0.0, math.pi, epsabs=1e-13, epsrel=1e-10, limit=400)
        val /= math.pi
    else:
        p = (d - 3) / 2.0

        def integrand(t):
            return bump(kappa * float(legendre_eval(d, m, t))) * (1.0 - t * t) ** p

        val, err = integrate.quad(integrand, -1.0, 1.0, epsabs=1e-13, epsrel=1e-10, limit=400)
        val *= math.gamma(d / 2.0) / (math.sqrt(math.pi) * math.gamma((d - 1) / 2.0))
    if err > max(1e-10, 1e-6 * abs(val)):
        raise NumericalError(f"profile KL quadrature error {err:.2e}")
    return float(val)


# ---------------------------------------------------------------------------
# shift profiles gamma_kappa


@lru_cache(maxsize=None)
def _delta_ratio(d, j, l):
    """Delta_j(l) / <P_0, P_0>: projection of t^l on P_j, normalized, exact."""
    mono = monomial_coefficients(d, j)
    total = Fraction(0)
    for i, a in enumerate(mono):
        if a:
            total += a * psi_exact(d, l + i)
    return total


def _exponential_weights(beta, d, kappa, even_only):
    """delta_j(kappa) = sum_l kappa^l / l! * Delta_j(l)/M_0 for j = 0..beta."""
    out = np.zeros(beta + 1)
    term = 1.0  # kappa^l / l!
    l = 0
    while True:
        step = 2 * l if even_only else l
        for j in range(beta + 1):
            if (j + step) % 2 == 0:
                out[j] += term * float(_delta_ratio(d, j, step))
        l += 1
        term *= kappa / l
        if term < _SERIES_TOL and l > kappa:
            break
        if l >= _SERIES_CAP:
            raise NumericalError("moment series did not converge")
    return out


def gamma_profile(alt, beta, d, kappa, s, m=None):
    """gamma_kappa as a function of s = cos(angle to the symmetry axis)."""
    _check_alt(alt, m)
    if kappa < 0:
        raise InputError("kappa must be >= 0")
    s = np.asarray(s, dtype=float)
    psi_b = psi(d, beta)
    if alt == "lp":
        amp = float(shift_amplitude_exact(beta, d, m))
        return kappa * amp * legendre_eval(d, m, s)
    if alt == "vmf":
        weights = _exponential_weights(beta, d, kappa, even_only=False)
        norm = vmf_norm_ratio(d, kappa)
    else:
        weights = _exponential_weights(beta, d, kappa, even_only=True)
        norm = watson_norm_ratio(d, kappa)
    total = np.zeros_like(s)
    for j, c in enumerate(power_expansion(d, beta)):
        cw = float(c) * weights[j]
        if cw:
            total = total + cw * legendre_eval(d, j, s)
    return total / norm - psi_b


def gamma_shift(alt, beta, d, kappa, cover=None, m=None):
    """max_b gamma_kappa(b)^2, over an ``(m, d)`` cover array or a dense cosine grid."""
    if cover is None:
        s = np.linspace(-1.0, 1.0, _GRID_SIZE)
    else:
        pts = np.asarray(cover, dtype=float)
        axis = np.zeros(pts.shape[1])
        axis[0] = 1.0
        s = np.clip(pts @ axis, -1.0, 1.0)
    g = gamma_profile(alt, beta, d, kappa, s, m=m)
    return float(np.max(g * g))


def slope(alt, beta, d, kappa, cover=None, m=None):
    """Approximate Bahadur slope max gamma^2 / sum lambda_j nu_d(j)."""
    denom = float(ZonalKernel(beta, d).total_variance)
    return gamma_shift(alt, beta, d, kappa, cover=cover, m=m) / denom


def local_are(alt, beta, d, m=None):
    """Closed-form local ARE against the likelihood-ratio test."""
    k = _order(alt, m)
    kernel = ZonalKernel(beta, d)
    if k > beta:
        return 0.0
    return float(kernel.eigenvalues[k] * harmonic_dim(d, k) / kernel.total_variance)


#: the dimensions of the study's efficiency table
STUDY_DIMS = (2, 3, 5, 10)


def are_table(dims=STUDY_DIMS):
    """All non-trivial local ARE rows: vMF, Watson and profile orders 1..6, powers 1..6.

    Returns a list of dicts with keys alternative, beta, and one column per
    dimension.
    """
    rows = []
    specs = [("vMF", "vmf", None)] + [("W", "watson", None)] + [
        (f"LP{m}", "lp", m) for m in range(1, 7)
    ]
    for label, alt, m in specs:
        k = _order(alt, m)
        for beta in range(1, 7):
            if k > beta or (beta + k) % 2 == 1:
                continue
            row = {"alternative": label, "beta": beta}
            for d in dims:
                row[f"d={d}"] = local_are(alt, beta, d, m=m)
            rows.append(row)
    return rows
