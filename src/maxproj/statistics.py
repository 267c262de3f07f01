"""Uniformity test statistics on S^{d-1}.

The family of interest measures n times the squared maximal deviation, over
directions b, of the empirical beta-th projection moment from its uniform
value.  The supremum over the sphere is approximated by the maximum over a
random direction cover; for beta = 1 and beta = 2 exact closed forms exist
(resultant length, extreme eigenvalues of the scatter matrix) and serve both
as defaults and as oracles for the cover estimator.

The module also implements the competitor battery of the simulation study:
Kuiper, Watson's U^2, Ajne, modified Rayleigh and the random-projection test
on the circle; Ajne, modified Rayleigh, Bingham, Gine and the projected
Kolmogorov-Smirnov/Cramer-von Mises tests on higher-dimensional spheres.
Large values are significant for every statistic except the random-projection
one, which aggregates p-values by their minimum.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy import integrate, special as sps

from ._errors import InputError, NumericalError
from .geometry import as_points, uniform_points
from .legendre import psi
from .rng import as_generator

__all__ = [
    "TestOutcome",
    "max_projection_stat",
    "t_stat",
    "t1_closed",
    "t2_closed",
    "circle_classical",
    "sphere_sobolev",
    "projection_cdf",
    "ks_statistic",
    "ca_test",
    "cvm_test",
    "cvm_kernel",
]


@dataclass(frozen=True)
class TestOutcome:
    """A computed statistic with optional p-value and provenance metadata."""

    name: str
    value: float
    method: str
    pvalue: float = None
    metadata: dict = field(default_factory=dict)


def _points(sample):
    x = as_points(sample)
    if x.ndim != 2:
        raise InputError(f"expected an (n, d) sample, got shape {x.shape}")
    return x


# ---------------------------------------------------------------------------
# maximal-projection statistics


def max_projection_values(x, betas, cover_points, block=512):
    """Cover-maximized statistics for several powers in one pass.

    Returns ``{beta: n * max_b (mean_i (b.x_i)^beta - psi_beta)^2}`` over the
    cover directions b.  This is the hot path of the Monte Carlo loops, and it
    has two routes that agree to rounding:

    - the *direct* route projects the sample onto each block of the cover and
      raises the (block, n) projections to every power: cost ~ m n beta_max;
    - the *moment* route uses (b.x)^beta = sum_{|a|=beta} beta!/a! b^a x^a, so
      each profile is one dot product of the sample's mean monomials M_beta
      (computed once, cost ~ n R) with the cover's monomials (cost ~ m R),
      where R = sum_{1 <= k <= beta_max} C(k+d-1, d-1) counts the monomials.

    The route is chosen by a fixed cost rule in (d, n, m, beta_max) only
    (:func:`_moment_route_cheaper`), so a run's output bytes do not depend on
    how its replications are split over workers.  Both routes walk the cover
    in blocks of ``block`` directions so their working arrays stay in cache.
    """
    x = np.asarray(x, dtype=float)
    cov = np.asarray(cover_points, dtype=float)
    if cov.shape[1] != x.shape[1]:
        raise InputError(f"cover dimension {cov.shape[1]} != sample dimension {x.shape[1]}")
    betas = sorted(set(int(b) for b in betas))
    if not betas or betas[0] < 1:
        raise InputError("powers must be >= 1")
    n, d = x.shape
    if _moment_route_cheaper(d, n, cov.shape[0], betas[-1]):
        return _moment_values(x, betas, cov, block)
    return _direct_values(x, betas, cov, block)


def _direct_values(x, betas, cov, block):
    """Direct route of :func:`max_projection_values`; ``betas`` sorted, unique."""
    n, d = x.shape
    psis = {b: psi(d, b) for b in betas}
    best = dict.fromkeys(betas, 0.0)
    xt = np.ascontiguousarray(x.T)
    for start in range(0, cov.shape[0], block):
        proj = cov[start : start + block] @ xt
        powers = proj.copy()
        for b in range(1, betas[-1] + 1):
            if b > 1:
                powers *= proj
            if b in psis:
                dev = powers.mean(axis=1)
                dev -= psis[b]
                peak = float(np.max(dev * dev))
                if peak > best[b]:
                    best[b] = peak
    return {b: n * v for b, v in best.items()}


#: the moment route is never used above this many monomials, which bounds
#: its (R, block) feature arrays to a few tens of MB
_MOMENT_MAX_FEATURES = 8192


def _moment_route_cheaper(d, n, m, beta_max):
    """Cost rule of :func:`max_projection_values`: True selects the moment route.

    The moment route builds R monomials for the n sample points and the m
    cover points and takes one R-long dot product per cover point and power:
    about (n + 2 m) R array operations.  The direct route does about
    m n (d + 2 beta_max) in its matmul and power loop, and each of those costs
    about half a moment-route operation, whose row gathers also slow down as
    the (R, block) arrays outgrow the cache: hence the factor 2 (1 + R/1000).
    Fitted on d = 2..8, n = 10..1000, m = 1000..20000 and beta_max = 3..8 on
    one x86-64 core; d = 5, n = 100, m = 20000, beta_max = 6 (R = 461) stays
    on the direct route.
    """
    r = math.comb(beta_max + d, d) - 1  # monomials x^a with 1 <= |a| <= beta_max
    if r > _MOMENT_MAX_FEATURES:
        return False
    return 2 * (n + 2 * m) * r * (1 + r / 1000) < m * n * (d + 2 * beta_max)


@lru_cache(maxsize=None)
def _monomial_plan(d, beta_max):
    """Exact plan for the monomials of degree 1..beta_max in d variables.

    Degree-k monomials are listed grouped by their last variable j; the ones
    ending in j are x_j times the degree-(k-1) monomials whose last variable
    is at most j, which form a prefix of the degree-(k-1) list.  Returns
    ``(steps, coefficients)``: one ``(parent, variable)`` index pair per degree
    k >= 2, so that monomial r of degree k is monomial ``parent[r]`` of degree
    k-1 times coordinate ``variable[r]`` (degree 1 is the coordinates
    themselves), and ``coefficients[k-1][r] = k! / a!`` for that monomial x^a,
    computed in integers.
    """
    exponents = [np.eye(d, dtype=np.int64)]
    steps = []
    for k in range(2, beta_max + 1):
        prefix = [math.comb(k - 1 + j, j) for j in range(d)]
        parent = np.concatenate([np.arange(p) for p in prefix])
        variable = np.repeat(np.arange(d), prefix)
        exps = exponents[-1][parent] + np.eye(d, dtype=np.int64)[variable]
        exponents.append(exps)
        steps.append((parent, variable))
    coefficients = tuple(
        np.array([math.factorial(k) // math.prod(math.factorial(int(a)) for a in row)
                  for row in exps], dtype=float)
        for k, exps in enumerate(exponents, start=1)
    )
    return tuple(steps), coefficients


def _monomials(points_t, steps):
    """Monomials of points given as columns of a (d, B) array, one array per degree."""
    out = [points_t]
    for parent, variable in steps:
        out.append(out[-1][parent] * points_t[variable])
    return out


def _moment_values(x, betas, cov, block):
    """Moment route of :func:`max_projection_values`; ``betas`` sorted, unique."""
    n, d = x.shape
    steps, coefficients = _monomial_plan(d, betas[-1])
    sums = dict.fromkeys(betas, 0.0)
    for start in range(0, n, block):
        feats = _monomials(np.ascontiguousarray(x[start : start + block].T), steps)
        for b in betas:
            sums[b] = sums[b] + feats[b - 1].sum(axis=1)
    weights = {b: coefficients[b - 1] * (sums[b] / n) for b in betas}
    psis = {b: psi(d, b) for b in betas}
    best = dict.fromkeys(betas, 0.0)
    for start in range(0, cov.shape[0], block):
        feats = _monomials(np.ascontiguousarray(cov[start : start + block].T), steps)
        for b in betas:
            dev = weights[b] @ feats[b - 1]
            dev -= psis[b]
            peak = float(np.max(dev * dev))
            if peak > best[b]:
                best[b] = peak
    return {b: n * v for b, v in best.items()}


def max_projection_stat(x, beta, cover_points):
    """n * max over the cover of (mean (b.U)^beta - psi)^2."""
    return max_projection_values(x, [beta], cover_points)[beta]


def t_stat(sample, beta, cover):
    """Cover-estimated maximal-projection statistic as a TestOutcome."""
    x = _points(sample)
    cov = as_points(cover)
    value = max_projection_stat(x, beta, cov)
    meta = {"m": cov.shape[0]}
    seed = getattr(cover, "seed", None)
    if seed is not None:
        meta["cover_seed"] = seed
    return TestOutcome(name=f"T{beta}", value=value, method="random_cover", metadata=meta)


def t1_closed(sample):
    """Exact T_1 = n ||mean||^2 (squared resultant form)."""
    x = _points(sample)
    mean = x.mean(axis=0)
    return float(x.shape[0] * mean @ mean)


def t2_closed(sample):
    """Exact T_2 = n max(|eig_min|, |eig_max|)^2 of the centered scatter matrix."""
    x = _points(sample)
    n, d = x.shape
    s = (x.T @ x) / n - np.eye(d) / d
    eigs = np.linalg.eigvalsh(s)
    return float(n * max(abs(eigs[0]), abs(eigs[-1])) ** 2)


# ---------------------------------------------------------------------------
# circle battery (d = 2)


def _angles(x):
    return np.mod(np.arctan2(x[:, 1], x[:, 0]), 2.0 * math.pi)


def circle_classical(sample):
    """Kuiper, Watson-U2, Ajne and modified Rayleigh statistics on the circle."""
    x = _points(sample)
    if x.shape[1] != 2:
        raise InputError("circle statistics require d = 2")
    n = x.shape[0]
    theta = np.sort(_angles(x), kind="stable")
    u = theta / (2.0 * math.pi)
    i = np.arange(1, n + 1)
    d_plus = math.sqrt(n) * np.max(i / n - u)
    d_minus = math.sqrt(n) * np.max(u - (i - 1) / n)
    kuiper = d_plus + d_minus
    watson = float(np.sum(((u - (i - 0.5) / n) - (u.mean() - 0.5)) ** 2) + 1.0 / (12.0 * n))
    return {
        "kuiper": float(kuiper),
        "watson_u2": watson,
        "ajne": _ajne(n, _pairwise_angles(x)),
        "rayleigh_mod": _rayleigh_mod(x),
    }


def _pairwise_angles(x):
    g = np.clip(x @ x.T, -1.0, 1.0)
    theta = np.arccos(g)
    iu = np.triu_indices(x.shape[0], k=1)
    return theta[iu]


def _ajne(n, theta):
    """Ajne's statistic from the n (n - 1) / 2 pairwise angles ``theta``."""
    return float(n / 4.0 - np.sum(theta) / (n * math.pi))


def _rayleigh_mod(x):
    n, d = x.shape
    mean = x.mean(axis=0)
    r = d * n * float(mean @ mean)
    return (1.0 - 1.0 / (2.0 * n)) * r + r * r / (2.0 * n * (d + 2.0))


def sphere_sobolev(sample, include_gine=None):
    """Ajne, modified Rayleigh, Bingham and (d >= 3) Gine statistics."""
    x = _points(sample)
    n, d = x.shape
    if include_gine is None:
        include_gine = d >= 3
    s = (x.T @ x) / n
    bingham = n * d * (d + 2.0) / 2.0 * (float(np.trace(s @ s)) - 1.0 / d)
    theta = _pairwise_angles(x)
    out = {
        "ajne": _ajne(n, theta),
        "rayleigh_mod": _rayleigh_mod(x),
        "bingham": float(bingham),
    }
    if include_gine:
        if d < 3:
            raise InputError("the Gine statistic is defined here only for d >= 3")
        coeff = (d - 1.0) * math.gamma(d / 2.0 - 1.0) ** 2 / (2.0 * n * math.gamma(d / 2.0) ** 2)
        out["gine"] = float(n / 2.0 - coeff * np.sum(np.sin(theta)))
    return out


# ---------------------------------------------------------------------------
# projected goodness-of-fit tests


def projection_cdf(d, y):
    """CDF of a fixed projection b.U of a uniform direction, F_{d-1}(y)."""
    if d < 2:
        raise InputError(f"dimension must be >= 2, got {d}")
    y = np.asarray(y, dtype=float)
    yc = np.clip(y, -1.0, 1.0)
    vals = 0.5 * (1.0 + np.sign(yc) * sps.betainc(0.5, (d - 1) / 2.0, yc * yc))
    vals = np.where(y < -1.0, 0.0, np.where(y > 1.0, 1.0, vals))
    return vals if vals.ndim else float(vals)


def _projection_pdf(d, y):
    y = np.asarray(y, dtype=float)
    return (1.0 - y * y) ** ((d - 3) / 2.0) / sps.beta(0.5, (d - 1) / 2.0)


def ks_statistic(values, cdf_values=None, d=None):
    """One-sample Kolmogorov-Smirnov sup distance against F_{d-1}.

    Pass either precomputed CDF values at the *sorted* sample or the
    dimension ``d``.
    """
    v = np.sort(np.asarray(values, dtype=float), kind="stable")
    n = v.shape[0]
    f = projection_cdf(d, v) if cdf_values is None else np.asarray(cdf_values)
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - f), np.max(f - (i - 1) / n)))


def ca_statistic(x, q, rng):
    """Minimum of q projected-KS p-values; small values are significant.

    The p-values are asymptotic Kolmogorov tails Q(sqrt(n) KS), and Q is
    decreasing, so the smallest p-value is the one of the largest KS distance:
    all q columns are sorted and scored at once.
    """
    x = np.asarray(x, dtype=float)
    n, d = x.shape
    h = uniform_points(d, q, rng)
    v = np.sort(x @ h.T, axis=0, kind="stable")
    f = projection_cdf(d, v)
    i = np.arange(1, n + 1)[:, None]
    k = float(max(np.max(i / n - f), np.max(f - (i - 1) / n)))
    return float(sps.kolmogorov(math.sqrt(n) * k))


def ca_test(sample, q, rng):
    """Random-projection test aggregated over q directions."""
    if q < 1:
        raise InputError("need q >= 1 projections")
    x = _points(sample)
    rng = as_generator(rng)
    value = ca_statistic(x, q, rng)
    return TestOutcome(
        name=f"CA{q}", value=value, method="random_cover", metadata={"q": q, "tail": "lower"}
    )


# ---------------------------------------------------------------------------
# projected Cramer-von Mises test


@lru_cache(maxsize=None)
def _cvm_kernel_table(d, grid_size=1024):
    """Interpolation table of the angle kernel for d >= 5 (one quadrature per node)."""
    thetas = np.linspace(0.0, math.pi, grid_size)
    vals = np.array([_cvm_kernel_quad(d, th) for th in thetas])
    return thetas, vals


def _cvm_kernel_quad(d, theta):
    if theta <= 0.0:
        return 0.5
    if theta >= math.pi:
        return 0.25
    c = math.cos(theta / 2.0)
    tan_half = math.tan(theta / 2.0)

    def integrand(y):
        z = y * tan_half / math.sqrt(1.0 - y * y)
        return (
            projection_cdf(d, y)
            * projection_cdf(d - 1, z)
            * _projection_pdf(d, y)
        )

    val, err = integrate.quad(integrand, 0.0, c, epsabs=1e-11, epsrel=1e-9, limit=200)
    if err > 1e-7:
        raise NumericalError(f"projected-CvM kernel quadrature error {err:.2e}")
    return (
        -4.0 * val
        - 0.75
        + theta / (2.0 * math.pi)
        + 2.0 * projection_cdf(d, c) ** 2
    )


def cvm_kernel(d, theta):
    """Angle kernel of the projected Cramer-von Mises statistic.

    Closed forms for d in {2, 3, 4}; cached quadrature interpolant above.
    """
    theta = np.asarray(theta, dtype=float)
    if d == 2:
        u = theta / (2.0 * math.pi)
        out = 0.5 + u * (u - 1.0)
    elif d == 3:
        out = 0.5 - 0.25 * np.sin(theta / 2.0)
    elif d == 4:
        u = theta / (2.0 * math.pi)
        zeta1 = 0.5 + u * (u - 1.0)
        # (pi - t) tan(t/2) -> 2 as t -> pi; clip to keep the product finite
        safe = np.minimum(theta, math.pi - 1e-9)
        half = safe / 2.0
        corr = (math.pi - safe) * np.tan(half) - 2.0 * np.sin(half) ** 2
        out = zeta1 + corr / (4.0 * math.pi**2)
    elif d >= 5:
        grid, vals = _cvm_kernel_table(d)
        out = np.interp(theta, grid, vals)
    else:
        raise InputError(f"dimension must be >= 2, got {d}")
    return out if out.ndim else float(out)


def cvm_statistic(x):
    x = np.asarray(x, dtype=float)
    n, d = x.shape
    theta = _pairwise_angles(x)
    return float(2.0 / n * np.sum(cvm_kernel(d, theta)) + (3.0 * n - 2.0) / 6.0)


def cvm_test(sample):
    """Projected Cramer-von Mises statistic (U-statistic form)."""
    x = _points(sample)
    return TestOutcome(name="CvM", value=cvm_statistic(x), method="closed_form")
