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

gamma_kappa is zonal in s = cos(angle to the symmetry axis), and all of its
Legendre weights are nonnegative, so its largest square over the sphere is
taken on the axis, s = 1; over a supplied direction cover, which does not
contain the axis, the maximum is taken over the cover's cosines.  The
exponential families use the closed-form Legendre means E_kappa P_j(theta . X),
Bessel ratios for von Mises-Fisher and confluent hypergeometric ratios for
Watson, which one helper evaluates together with the log normalizing
constant; the profile class is exactly linear in kappa.
"""

import math

import numpy as np

from ._errors import InputError, NumericalError
from .kernels import ZonalKernel, shift_amplitude_exact
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
# the exponential families in closed form


def _family(alt, beta, d, kappa):
    """E_kappa P_j(theta . X), j = 0..beta, and KL(kappa, 0), under the vMF or Watson family.

    Each family is exp(kappa T) / c(kappa) with c normalized by the sphere
    area, so KL(kappa, 0) = kappa E T - log c(kappa).  vMF: T = t,
    E P_j = I_{j+nu}(kappa) / I_nu(kappa) with nu = d/2 - 1, and
    c = 0F1(d/2; kappa^2/4).  Watson: T = t^2, c = M(1/2, d/2, kappa), and the
    even moments E t^{2l} = psi_d(2l) M(l+1/2, d/2+l, kappa) / c are combined
    through the monomial coefficients of P_j.  Exact at kappa = 0; raises
    NumericalError once any of these overflows.
    """
    from scipy import special as sps

    out = np.zeros(beta + 1)
    out[0] = 1.0
    if kappa == 0.0:
        return out, 0.0
    if alt == "vmf":
        nu = d / 2.0 - 1.0
        out[1:] = sps.ive(np.arange(1, beta + 1) + nu, kappa) / sps.ive(nu, kappa)
        norm = sps.hyp0f1(d / 2.0, 0.25 * kappa * kappa)
        mean_stat = out[1]
    else:
        moments = np.zeros(max(beta, 2) + 1)
        l = np.arange(len(moments[::2]))
        norm = sps.hyp1f1(0.5, d / 2.0, kappa)
        ratio = sps.hyp1f1(l + 0.5, d / 2.0 + l, kappa)
        with np.errstate(invalid="ignore"):  # inf / inf once 1F1 overflows, caught below
            ratio /= norm
        moments[::2] = [psi(d, 2 * i) for i in l] * ratio
        for j in range(1, beta + 1):
            out[j] = sum(float(a) * moments[i] for i, a in enumerate(monomial_coefficients(d, j)))
        mean_stat = moments[2]
    # past the float range scipy's 0F1(1; x) returns 0 instead of inf
    kl = mean_stat * kappa - (math.log(norm) if norm > 0.0 else math.inf)
    if not (np.all(np.isfinite(out)) and math.isfinite(kl)):
        raise NumericalError(f"{alt} moments or normalizing constant overflow at kappa = {kappa}")
    return out, float(kl)


# ---------------------------------------------------------------------------
# Kullback-Leibler numbers


def kl_divergence(alt, d, kappa, m=None):
    """KL(kappa, 0) against uniformity for the given alternative class.

    The exponential families read kappa E T - log c(kappa) from their closed
    forms.  The profile class is one quadrature against the weight
    (1-t^2)^{(d-3)/2}, QUADPACK's algebraic-endpoint rule, which also covers
    the singular d = 2 weight; the linear term of the integrand is removed
    analytically (it integrates to zero), which keeps small-kappa values
    cancellation-free.
    """
    _check_alt(alt, m)
    if not 0.0 < kappa < math.inf:
        raise InputError(f"kappa must be finite and > 0, got {kappa}")
    if alt != "lp":
        return _family(alt, 1, d, kappa)[1]
    if kappa > 1.0:
        raise InputError("profile-class kappa must lie in (0, 1]")
    from scipy import integrate

    def bump(t):
        # (1+x) log(1+x) - x at x = kappa P_m(t), with log1p so that the
        # O(x^2) value keeps its relative accuracy as kappa -> 0
        x = kappa * legendre_eval(d, m, t)
        if x <= -1.0:
            return 1.0
        return (1.0 + x) * math.log1p(x) - x

    # a purely relative target: the value is about kappa^2 / (2 nu_d(m))
    p = (d - 3) / 2.0
    val, err = integrate.quad(bump, -1.0, 1.0, weight="alg", wvar=(p, p),
                              epsabs=0.0, epsrel=1e-9, limit=400)
    val *= math.gamma(d / 2.0) / (math.sqrt(math.pi) * math.gamma((d - 1) / 2.0))
    if err > 1e-6 * val:
        raise NumericalError(f"profile KL quadrature error {err:.2e}")
    return float(val)


# ---------------------------------------------------------------------------
# shift profiles gamma_kappa


def gamma_profile(alt, beta, d, kappa, s, m=None):
    """gamma_kappa as a function of s = cos(angle to the symmetry axis)."""
    _check_alt(alt, m)
    if not 0.0 <= kappa < math.inf:
        raise InputError(f"kappa must be finite and >= 0, got {kappa}")
    s = np.asarray(s, dtype=float)
    if alt == "lp":
        amp = float(shift_amplitude_exact(beta, d, m))
        return kappa * amp * legendre_eval(d, m, s)
    # the j = 0 term is psi_d(beta), the uniform moment that gamma subtracts
    means = _family(alt, beta, d, kappa)[0]
    total = np.zeros_like(s)
    for j, c in enumerate(power_expansion(d, beta)[1:], start=1):
        cw = float(c) * means[j]
        if cw:
            total = total + cw * legendre_eval(d, j, s)
    return total


def gamma_shift(alt, beta, d, kappa, cover=None, m=None):
    """max_b gamma_kappa(b)^2 over the sphere, or over an ``(m, d)`` cover array.

    gamma_kappa(s) = sum_j w_j P_j(s) with every weight w_j >= 0: t^beta,
    exp(kappa t) and exp(kappa t^2) all have nonnegative Legendre
    coefficients, and the profile class has the single weight
    kappa c_m / nu_d(m).  Since |P_j(s)| <= P_j(1) = 1, the maximum over the
    sphere is gamma_kappa(1)^2, taken on the axis.  A cover does not contain
    the axis, so its maximum is taken over its cosines.
    """
    if cover is None:
        s = 1.0
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
