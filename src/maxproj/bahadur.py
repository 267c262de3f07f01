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

Each class is described once, by :func:`_family`: its Legendre means
E_kappa P_j(theta . X) and its density ratio against uniformity as a
function of t = theta . x.  The shift is the one Legendre sum of the means,
and KL is the one quadrature of the ratio, for every class.  gamma_kappa is
zonal in s = cos(angle to the symmetry axis), and all of its Legendre
weights are nonnegative, so its largest square over the sphere is taken on
the axis, s = 1.
"""

import math

import numpy as np

from ._errors import InputError, NumericalError
from .kernels import ZonalKernel
from .legendre import (
    harmonic_dim,
    legendre_eval,
    monomial_coefficients,
    power_expansion,
    psi,
)

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
# the alternative classes


def _family(alt, beta, d, kappa, m=None):
    """Legendre means and density ratio of the alternative class at ``kappa``.

    Returns ``(means, y)``: means[j] = E_kappa P_j(theta . X), j = 0..beta,
    and y(t) = f_kappa(t) / f_0 - 1 at t = theta . x.  The profile class
    1 + kappa P_m(t) has the single mean kappa / nu_d(m) at j = m and
    y = kappa P_m(t).  vMF and Watson are exp(kappa T) / c(kappa) with c
    normalized by the sphere area, so y = expm1(kappa T - log c).  vMF: T = t,
    E P_j = I_{j+nu}(kappa) / I_nu(kappa) with nu = d/2 - 1, and
    c = 0F1(d/2; kappa^2/4).  Watson: T = t^2, c = M(1/2, d/2, kappa), and the
    even moments E t^{2l} = psi_d(2l) M(l+1/2, d/2+l, kappa) / c are combined
    through the monomial coefficients of P_j.  Exact at kappa = 0; raises
    NumericalError once any of these overflows.
    """
    from scipy import special as sps

    means = np.zeros(beta + 1)
    means[0] = 1.0
    if alt == "lp":
        if m <= beta:
            means[m] = kappa / harmonic_dim(d, m)
        return means, lambda t: kappa * legendre_eval(d, m, t)
    if kappa == 0.0:
        return means, lambda t: 0.0
    if alt == "vmf":
        nu = d / 2.0 - 1.0
        means[1:] = sps.ive(np.arange(1, beta + 1) + nu, kappa) / sps.ive(nu, kappa)
        norm = sps.hyp0f1(d / 2.0, 0.25 * kappa * kappa)
        power = 1
    else:
        moments = np.zeros(max(beta, 2) + 1)
        l = np.arange(len(moments[::2]))
        norm = sps.hyp1f1(0.5, d / 2.0, kappa)
        ratio = sps.hyp1f1(l + 0.5, d / 2.0 + l, kappa)
        with np.errstate(invalid="ignore"):  # inf / inf once 1F1 overflows, caught below
            ratio /= norm
        moments[::2] = [psi(d, 2 * i) for i in l] * ratio
        for j in range(1, beta + 1):
            means[j] = sum(float(a) * moments[i] for i, a in enumerate(monomial_coefficients(d, j)))
        power = 2
    # past the float range scipy's 0F1(1; x) returns 0 instead of inf
    log_c = math.log(norm) if norm > 0.0 else math.inf
    if not (np.all(np.isfinite(means)) and math.isfinite(log_c)):
        raise NumericalError(f"{alt} moments or normalizing constant overflow at kappa = {kappa}")
    return means, lambda t: math.expm1(kappa * t**power - log_c)


# ---------------------------------------------------------------------------
# Kullback-Leibler numbers


def kl_divergence(alt, d, kappa, m=None):
    """KL(kappa, 0) against uniformity for the given alternative class.

    One quadrature for every class: the integral of (1+y) log(1+y) - y, with
    y the density ratio minus one of :func:`_family`, against the weight
    (1-t^2)^{(d-3)/2}, by QUADPACK's algebraic-endpoint rule, which also
    covers the singular d = 2 weight.  The linear term -y integrates to zero
    and keeps the integrand O(y^2), so small-kappa values keep their relative
    accuracy, and an error in log c moves the value only to second order.
    """
    _check_alt(alt, m)
    if not 0.0 < kappa < math.inf:
        raise InputError(f"kappa must be finite and > 0, got {kappa}")
    if alt == "lp" and kappa > 1.0:
        raise InputError("profile-class kappa must lie in (0, 1]")
    from scipy import integrate

    y = _family(alt, 0, d, kappa, m=m)[1]

    def bump(t):
        # (1+x) log(1+x) - x, with log1p so that the O(x^2) value keeps its
        # relative accuracy as kappa -> 0
        x = y(t)
        if x <= -1.0:
            return 1.0
        return (1.0 + x) * math.log1p(x) - x

    # a purely relative target: the value is O(kappa^2) as kappa -> 0
    p = (d - 3) / 2.0
    val, err = integrate.quad(bump, -1.0, 1.0, weight="alg", wvar=(p, p),
                              epsabs=0.0, epsrel=1e-9, limit=400)
    val *= math.gamma(d / 2.0) / (math.sqrt(math.pi) * math.gamma((d - 1) / 2.0))
    if err > 1e-6 * val:
        raise NumericalError(f"{alt} KL quadrature error {err:.2e}")
    return float(val)


# ---------------------------------------------------------------------------
# shift profiles gamma_kappa


def gamma_profile(alt, beta, d, kappa, s, m=None):
    """gamma_kappa as a function of s = cos(angle to the symmetry axis)."""
    _check_alt(alt, m)
    if not 0.0 <= kappa < math.inf:
        raise InputError(f"kappa must be finite and >= 0, got {kappa}")
    s = np.asarray(s, dtype=float)
    # the j = 0 term is psi_d(beta), the uniform moment that gamma subtracts
    means = _family(alt, beta, d, kappa, m=m)[0]
    total = np.zeros_like(s)
    for j, c in enumerate(power_expansion(d, beta)[1:], start=1):
        cw = float(c) * means[j]
        if cw:
            total = total + cw * legendre_eval(d, j, s)
    return total


def gamma_shift(alt, beta, d, kappa, m=None):
    """max_b gamma_kappa(b)^2 over the sphere.

    gamma_kappa(s) = sum_j c_j mu_j P_j(s) with every weight c_j mu_j >= 0:
    t^beta, exp(kappa t) and exp(kappa t^2) all have nonnegative Legendre
    coefficients, and the profile class has the single mean
    kappa / nu_d(m).  Since |P_j(s)| <= P_j(1) = 1, the maximum over the
    sphere is gamma_kappa(1)^2, taken on the axis.
    """
    g = gamma_profile(alt, beta, d, kappa, 1.0, m=m)
    return float(g * g)


def slope(alt, beta, d, kappa, m=None):
    """Approximate Bahadur slope max gamma^2 / sum lambda_j nu_d(j)."""
    denom = float(ZonalKernel(beta, d).total_variance)
    return gamma_shift(alt, beta, d, kappa, m=m) / denom


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
