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
direction cover).  The exponential families use the closed-form Legendre
means E_kappa P_j(theta . X), Bessel ratios for von Mises-Fisher and confluent
hypergeometric ratios for Watson; the profile class is exactly linear in kappa.
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
from .special import vmf_mean_resultant, vmf_norm_ratio, watson_mean_square, watson_norm_ratio

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


def _legendre_means(alt, beta, d, kappa):
    """E_kappa P_j(theta . X), j = 0..beta, under the vMF or Watson family.

    vMF: I_{j+nu}(kappa) / I_nu(kappa) with nu = d/2 - 1.  Watson: the even
    moments E t^{2l} = psi_d(2l) M(l+1/2, d/2+l, kappa) / M(1/2, d/2, kappa),
    combined through the monomial coefficients of P_j.  Exact at kappa = 0.
    """
    from scipy import special as sps

    out = np.zeros(beta + 1)
    out[0] = 1.0
    if kappa == 0.0:
        return out
    if alt == "vmf":
        nu = d / 2.0 - 1.0
        out[1:] = sps.ive(np.arange(1, beta + 1) + nu, kappa) / sps.ive(nu, kappa)
    else:
        moments = np.zeros(beta + 1)
        l = np.arange(beta // 2 + 1)
        ratio = sps.hyp1f1(l + 0.5, d / 2.0 + l, kappa)
        with np.errstate(invalid="ignore"):  # inf / inf once 1F1 overflows, caught below
            ratio /= sps.hyp1f1(0.5, d / 2.0, kappa)
        moments[::2] = [psi(d, 2 * i) for i in l] * ratio
        for j in range(1, beta + 1):
            out[j] = sum(float(a) * moments[i] for i, a in enumerate(monomial_coefficients(d, j)))
    if not np.all(np.isfinite(out)):
        raise NumericalError(f"{alt} moments overflow at kappa = {kappa}")
    return out


def gamma_profile(alt, beta, d, kappa, s, m=None):
    """gamma_kappa as a function of s = cos(angle to the symmetry axis)."""
    _check_alt(alt, m)
    if kappa < 0:
        raise InputError("kappa must be >= 0")
    s = np.asarray(s, dtype=float)
    if alt == "lp":
        amp = float(shift_amplitude_exact(beta, d, m))
        return kappa * amp * legendre_eval(d, m, s)
    # the j = 0 term is psi_d(beta), the uniform moment that gamma subtracts
    means = _legendre_means(alt, beta, d, kappa)
    total = np.zeros_like(s)
    for j, c in enumerate(power_expansion(d, beta)[1:], start=1):
        cw = float(c) * means[j]
        if cw:
            total = total + cw * legendre_eval(d, j, s)
    return total


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
