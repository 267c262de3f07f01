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
:func:`evaluate_battery` is the battery's one definition: it picks the
statistics per d and names them.  Large values are significant except for the
random-projection test (:data:`LOWER_TAIL`), which takes the minimum p-value.
"""

import math
from functools import lru_cache

import numpy as np

from ._errors import InputError, check_dimension, check_integer
from .geometry import uniform_points
from .legendre import psi

__all__ = [
    "max_projection_values",
    "cover_powers",
    "t1_closed",
    "t2_closed",
    "circle_classical",
    "sphere_sobolev",
    "projection_cdf",
    "ca_statistic",
    "cvm_statistic",
    "cvm_kernel",
    "evaluate_battery",
    "LOWER_TAIL",
    "SCIPY_FROM_DIM",
]

#: statistics whose small values are significant
LOWER_TAIL = {"ca25", "ca100"}


def _points(sample, what="sample"):
    """``sample`` as n >= 1 finite float rows of d >= 2 coordinates; ``what`` names it."""
    x = np.asarray(sample, dtype=float)
    if x.ndim != 2:
        raise InputError(f"expected an (n, d) array of points, got shape {x.shape}")
    if x.shape[0] == 0:
        raise InputError(f"the {what} holds no {'direction' if what == 'cover' else 'point'}")
    check_dimension(x.shape[1])
    if not np.isfinite(x).all():
        raise InputError(f"the {what} holds a non-finite coordinate")
    return x


# ---------------------------------------------------------------------------
# maximal-projection statistics


def max_projection_values(x, betas, cover_points):
    """Cover-maximized statistics for several powers in one pass.

    Returns ``{beta: n * max_b (mean_i (b.x_i)^beta - psi_beta)^2}`` over the
    cover directions b.  This is the hot path of the Monte Carlo loops.  It
    has two routes that agree to rounding; each only yields, block by block
    of the cover, each power's profile mean_i (b.x_i)^beta:

    - the *direct* route projects the sample onto each block of 512 cover
      directions and raises the (block, n) projections to every power:
      cost ~ m n beta_max;
    - the *moment* route uses (b.x)^beta = sum_{|a|=beta} beta!/a! b^a x^a, so
      each profile is one dot product of the sample's mean monomials M_beta
      (computed once, cost ~ n R) with the cover's monomials (cost ~ m R),
      where R = sum_{1 <= k <= beta_max} C(k+d-1, d-1) counts the monomials.
      Both sides build their monomials into one (R, B) buffer allocated once
      per call.  The sample side always takes blocks of 512 points, because
      M_beta is summed block by block and another size would change its last
      bits.  The cover side takes blocks of as many multiples of 512
      directions as the buffer's fixed element budget holds (at least one),
      and its last ((m - 1) mod 512) + 1 directions as a block of their own.
      That block size changes no value: the running maximum is exact, and
      each direction's dot product is summed as it was in blocks of 512.

    The route is chosen by a fixed cost rule in (d, n, m, beta_max) only
    (:func:`_moment_route_cheaper`), so a run's output bytes do not depend on
    how its replications are split over workers.  A sample or cover that is
    not an (n >= 1, d >= 2) array of finite coordinates, or a power that is
    not an integer >= 1, raises :class:`InputError` on both routes.
    """
    x = _points(x)
    cov = _points(cover_points, "cover")
    if cov.shape[1] != x.shape[1]:
        raise InputError(f"cover dimension {cov.shape[1]} != sample dimension {x.shape[1]}")
    for b in betas:
        check_integer(b, 1, "power")
    betas = sorted(set(betas))
    if not betas:
        raise InputError("no power given")
    n, d = x.shape
    moment = _moment_route_cheaper(d, n, cov.shape[0], betas[-1])
    psis = {b: psi(d, b) for b in betas}
    best = dict.fromkeys(betas, 0.0)
    for b, dev in (_moment_profiles if moment else _direct_profiles)(x, betas, cov):
        dev -= psis[b]
        np.multiply(dev, dev, out=dev)
        best[b] = max(best[b], float(dev.max()))
    return {b: n * v for b, v in best.items()}


def _direct_profiles(x, betas, cov):
    """Direct route: ``(beta, profile)`` per cover block and power, by raising projections."""
    xt = np.ascontiguousarray(x.T)
    for start in range(0, cov.shape[0], _DIRECT_BLOCK):
        proj = cov[start : start + _DIRECT_BLOCK] @ xt
        powers = proj.copy()
        for b in range(1, betas[-1] + 1):
            if b > 1:
                powers *= proj
            if b in betas:
                yield b, powers.mean(axis=1)


#: the moment route is never used above this many monomials, which bounds
#: its (R, block) feature arrays to a few tens of MB
_MOMENT_MAX_FEATURES = 8192


def _moment_route_cheaper(d, n, m, beta_max):
    """Cost rule of :func:`max_projection_values`: True selects the moment route.

    The moment route builds R monomials for the n sample points and the m
    cover points and takes one R-long dot product per cover point and power:
    about (n + 2 m) R array operations.  The direct route does about
    m n (d + 2 beta_max) in its matmul and power loop, and each of those costs
    about half a moment-route operation, and the moment route also slows down
    as its (R, block) arrays outgrow the cache: hence the factor 2 (1 + R/1000).
    Fitted on d = 2..8, n = 10..1000, m = 1000..20000 and beta_max = 3..8 on
    one x86-64 core; d = 5, n = 100, m = 20000, beta_max = 6 (R = 461) stays
    on the direct route.
    """
    r = math.comb(beta_max + d, d) - 1  # monomials x^a with 1 <= |a| <= beta_max
    if r > _MOMENT_MAX_FEATURES:
        return False
    return 2 * (n + 2 * m) * r * (1 + r / 1000) < m * n * (d + 2 * beta_max)


#: cover directions per block of the direct route
_DIRECT_BLOCK = 512

#: sample points per block of the moment route: the sample's mean monomials
#: are sums of per-block sums, so this size is part of the output bytes
_SAMPLE_BLOCK = 512

#: elements of the moment route's monomial buffer, which sets its cover block
_MOMENT_BUFFER = 2**17


@lru_cache(maxsize=None)
def _monomial_plan(d, beta_max):
    """Exact plan for the monomials of degree 1..beta_max in d variables.

    The monomials are stacked degree by degree as the rows of one (R, B)
    array: rows ``offsets[k-1]:offsets[k]`` hold degree k, and degree 1 is
    the coordinates themselves.  Degree-k monomials are listed grouped by
    their last variable j; the ones ending in j are x_j times the
    degree-(k-1) monomials whose last variable is at most j, which form a
    prefix of the degree-(k-1) rows.  So each ``(src_start, src_stop,
    dst_start, dst_stop, j)`` in ``steps`` fills the destination rows with
    the source rows times row j, all contiguous slices.  Returns
    ``(steps, offsets, coefficients)`` with ``coefficients[k-1][r] = k! / a!``
    for the r-th degree-k monomial x^a, computed in integers.
    """
    unit = np.eye(d, dtype=np.int64)
    exponents = [unit]
    offsets = [0, d]
    steps = []
    for k in range(2, beta_max + 1):
        src, dst = offsets[-2], offsets[-1]
        rows = []
        for j in range(d):
            size = math.comb(k - 1 + j, j)
            steps.append((src, src + size, dst, dst + size, j))
            rows.append(exponents[-1][:size] + unit[j])
            dst += size
        exponents.append(np.concatenate(rows))
        offsets.append(dst)
    coefficients = tuple(
        np.array([math.factorial(k) // math.prod(math.factorial(int(a)) for a in row)
                  for row in exps], dtype=float)
        for k, exps in enumerate(exponents, start=1)
    )
    return tuple(steps), tuple(offsets), coefficients


def _fill_monomials(buf, points, steps, r):
    """The r monomials of the rows of ``points``, as an (r, len(points)) view of ``buf``."""
    feats = buf[: r * points.shape[0]].reshape(r, points.shape[0])
    feats[: points.shape[1]] = points.T
    for s0, s1, t0, t1, j in steps:
        np.multiply(feats[s0:s1], feats[j], out=feats[t0:t1])
    return feats


def _moment_profiles(x, betas, cov):
    """Moment route: ``(beta, profile)`` per cover block and power, one gemv each."""
    n, d = x.shape
    m = cov.shape[0]
    steps, offsets, coefficients = _monomial_plan(d, betas[-1])
    r = offsets[-1]
    block = _SAMPLE_BLOCK * max(1, _MOMENT_BUFFER // (_SAMPLE_BLOCK * r))
    size = r * max(min(n, _SAMPLE_BLOCK), min(m, block))
    # filling the monomials takes up to 1.7 times as long on a buffer that is
    # not 64-byte aligned, and np.empty does not promise that alignment:
    # over-allocate and slice to a boundary
    buf = np.empty(size + 8)
    lead = (-buf.ctypes.data % 64) // 8
    buf = buf[lead : lead + size]
    sums = dict.fromkeys(betas, 0.0)
    for start in range(0, n, _SAMPLE_BLOCK):
        feats = _fill_monomials(buf, x[start : start + _SAMPLE_BLOCK], steps, r)
        for b in betas:
            sums[b] = sums[b] + feats[offsets[b - 1] : offsets[b]].sum(axis=1)
    weights = {b: coefficients[b - 1] * (sums[b] / n) for b in betas}
    # the final partial _SAMPLE_BLOCK of the cover stays a block of its own:
    # gemv sums the last (width mod 4) columns of a block, and every column of
    # a block narrower than 4, in another order than the rest
    last = m - 1 - (m - 1) % _SAMPLE_BLOCK
    bounds = [*range(0, last, block), last, m]
    for start, stop in zip(bounds, bounds[1:]):
        feats = _fill_monomials(buf, cov[start:stop], steps, r)
        for b in betas:
            yield b, weights[b] @ feats[offsets[b - 1] : offsets[b]]


def cover_powers(betas):
    """The powers of ``betas`` scored as cover maxima: all but 1 and 2, which have closed forms."""
    return [b for b in betas if b > 2]


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
    theta = np.sort(_angles(x))
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


@lru_cache(maxsize=8)
def _upper_pairs(n):
    """Read-only ``np.triu_indices(n, k=1)``, shared by every call at this n."""
    iu = np.triu_indices(n, k=1)
    for index in iu:
        index.flags.writeable = False
    return iu


def _pairwise_angles(x):
    g = (x @ x.T)[_upper_pairs(x.shape[0])]
    return np.arccos(np.clip(g, -1.0, 1.0))


def _ajne(n, theta):
    """Ajne's statistic from the n (n - 1) / 2 pairwise angles ``theta``."""
    return float(n / 4.0 - np.sum(theta) / (n * math.pi))


def _rayleigh_mod(x):
    n, d = x.shape
    mean = x.mean(axis=0)
    r = d * n * float(mean @ mean)
    return (1.0 - 1.0 / (2.0 * n)) * r + r * r / (2.0 * n * (d + 2.0))


def sphere_sobolev(sample, theta=None):
    """Ajne, modified Rayleigh, Bingham and (d >= 3) Gine statistics.

    ``theta`` may pass the sample's pairwise angles, ``_pairwise_angles(x)``,
    when the caller has them already.
    """
    x = _points(sample)
    n, d = x.shape
    s = (x.T @ x) / n
    bingham = n * d * (d + 2.0) / 2.0 * (float(np.sum(s * s)) - 1.0 / d)
    if theta is None:
        theta = _pairwise_angles(x)
    out = {
        "ajne": _ajne(n, theta),
        "rayleigh_mod": _rayleigh_mod(x),
        "bingham": float(bingham),
    }
    if d >= 3:
        # Gine's G_n, null mean 1/2; Gamma((d-1)/2) / Gamma(d/2) by lgamma stays finite at any d
        ratio = math.exp(math.lgamma((d - 1) / 2.0) - math.lgamma(d / 2.0))
        coeff = (d - 1.0) / (2.0 * n) * ratio**2
        out["gine"] = float(n / 2.0 - coeff * np.sum(np.sin(theta)))
    return out


# ---------------------------------------------------------------------------
# projected goodness-of-fit tests


#: the competitor battery calls scipy.special from this dimension on:
#: ``betainc`` in :func:`projection_cdf` and ``beta`` in the CvM kernel table
SCIPY_FROM_DIM = 4


def projection_cdf(d, y):
    """CDF of a fixed projection b.U of a uniform direction, F_{d-1}(y).

    Closed forms at d = 2 (arcsine law) and d = 3 (uniform law, Archimedes);
    the regularized incomplete beta function from :data:`SCIPY_FROM_DIM` on.
    """
    check_dimension(d)
    y = np.asarray(y, dtype=float)
    yc = np.clip(y, -1.0, 1.0)
    if d == 2:
        vals = 0.5 + np.arcsin(yc) / math.pi
    elif d == 3:
        vals = 0.5 * (1.0 + yc)
    else:
        from scipy import special as sps

        vals = 0.5 * (1.0 + np.sign(yc) * sps.betainc(0.5, (d - 1) / 2.0, yc * yc))
    vals = np.where(y < -1.0, 0.0, np.where(y > 1.0, 1.0, vals))
    return vals if vals.ndim else float(vals)


def _projection_pdf(d, y):
    from scipy import special as sps

    y = np.asarray(y, dtype=float)
    return (1.0 - y * y) ** ((d - 3) / 2.0) / sps.beta(0.5, (d - 1) / 2.0)


def _kolmogorov_sf(x):
    """Survival function Q(x) = 2 sum_{k>=1} (-1)^(k-1) exp(-2 k^2 x^2) of the Kolmogorov law.

    A port of the two-series evaluation of ``scipy.special.kolmogorov``, in
    the same operations and order, so that it returns the same double.  Up
    to x = 0.82 the theta-transformed series
    1 - sqrt(2 pi)/x sum_k exp(-(2k-1)^2 pi^2 / (8 x^2)) converges in four
    terms, above it the alternating series in v = exp(-2 x^2) does.
    """
    if math.isnan(x):
        return math.nan
    # here exp(-pi^2 / (8 x^2)) < exp(-746) underflows to 0, and 1 - Q(x) to it
    if x <= math.pi / math.sqrt(8 * 746):
        return 1.0
    if x <= 0.82:
        w = math.sqrt(2 * math.pi) / x
        logu8 = -math.pi * math.pi / (x * x)
        u = math.exp(logu8 / 8)
        if u == 0.0:
            p = math.exp(logu8 / 8 + math.log(w))
        else:
            u8 = math.exp(logu8)
            p = w * u * (1.0 + u8 * (1.0 + u8 * u8 * (1.0 + u8**3)))
        sf = 1.0 - p
    else:
        v = math.exp(-2 * x * x)
        v3 = v**3
        sf = 2 * v * (1.0 - v3 * (1.0 - v3 * (v * v) * (1.0 - v3 * v3 * v)))
    return min(max(sf, 0.0), 1.0)


def ca_statistic(x, q, rng):
    """Minimum of q projected-KS p-values; small values are significant.

    The p-values are asymptotic Kolmogorov tails Q(sqrt(n) KS), computed in
    ``math`` and equal to ``scipy.special.kolmogorov`` to the last bit.  Q is
    decreasing, so the smallest p-value is the one of the largest KS distance:
    all q columns are sorted and scored at once.
    """
    x = _points(x)
    n, d = x.shape
    h = uniform_points(d, q, rng)
    v = np.sort(x @ h.T, axis=0)
    f = projection_cdf(d, v)
    i = np.arange(1, n + 1)[:, None]
    k = float(max(np.max(i / n - f), np.max(f - (i - 1) / n)))
    return _kolmogorov_sf(math.sqrt(n) * k)


# ---------------------------------------------------------------------------
# projected Cramer-von Mises test


@lru_cache(maxsize=None)
def _cvm_kernel_table(d):
    """Interpolation table of the angle kernel for d >= 5, on 1024 angles in [0, pi].

    At an interior angle theta, with c = cos(theta/2) and
    z = y tan(theta/2) / sqrt(1 - y^2), the kernel is
    2 F_d(c)^2 - 3/4 + theta/(2 pi) - 4 int_0^c F_d(y) F_{d-1}(z) f_d(y) dy.
    The substitution y = c (1 - v^2) smooths the integrand at y = c, where z
    reaches 1, so one fixed 64-point Gauss-Legendre rule in v integrates all
    interior angles in one array pass, to about 1e-14.
    """
    thetas = np.linspace(0.0, math.pi, 1024)
    half = thetas[1:-1, None] / 2.0
    c = np.cos(half)
    # not scipy.special.roots_legendre: its first call imports scipy.linalg,
    # which a forked worker would then import for itself
    nodes, weights = np.polynomial.legendre.leggauss(64)
    v = (nodes + 1.0) / 2.0
    y = c * (1.0 - v * v)
    z = y * np.tan(half) / np.sqrt(1.0 - y * y)
    f = projection_cdf(d, y) * projection_cdf(d - 1, z) * _projection_pdf(d, y)
    # dy = 2 c v dv, and the rule on [0, 1] carries weights / 2
    integral = (f * (c * v * weights)).sum(axis=1)
    vals = np.empty_like(thetas)
    vals[0], vals[-1] = 0.5, 0.25
    vals[1:-1] = (
        -4.0 * integral
        - 0.75
        + thetas[1:-1] / (2.0 * math.pi)
        + 2.0 * projection_cdf(d, c[:, 0]) ** 2
    )
    return thetas, vals


def cvm_kernel(d, theta):
    """Angle kernel of the projected Cramer-von Mises statistic.

    Closed forms for d in {2, 3, 4}; the cached table's interpolant above.
    """
    check_dimension(d)
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
    else:
        grid, vals = _cvm_kernel_table(d)
        out = np.interp(theta, grid, vals)
    return out if out.ndim else float(out)


def cvm_statistic(x, theta=None):
    """Projected Cramer-von Mises statistic; ``theta`` as in :func:`sphere_sobolev`."""
    x = _points(x)
    n, d = x.shape
    if theta is None:
        theta = _pairwise_angles(x)
    return float(2.0 / n * np.sum(cvm_kernel(d, theta)) + (3.0 * n - 2.0) / 6.0)


# ---------------------------------------------------------------------------
# the battery


def evaluate_battery(x, betas, cover_points=None, rng_ca=None):
    """All statistics of the battery on one sample; returns name -> value.

    The competitors run when ``rng_ca``, the stream of the random-projection
    directions, is given; without it only the powers ``betas`` are scored.
    """
    x = _points(x)
    d = x.shape[1]
    vals = {}
    for b in betas:
        check_integer(b, 1, "power")
    cover_betas = cover_powers(betas)
    if 1 in betas:
        vals["T1"] = t1_closed(x)
    if 2 in betas:
        vals["T2"] = t2_closed(x)
    if cover_betas:
        if cover_points is None:
            raise InputError("cover required for powers beta >= 3")
        res = max_projection_values(x, cover_betas, cover_points)
        vals.update({f"T{b}": v for b, v in res.items()})
    if rng_ca is None:
        return vals
    if d == 2:
        vals.update(circle_classical(x))
        vals["ca25"] = ca_statistic(x, 25, rng_ca)
    else:
        theta = _pairwise_angles(x)
        vals.update(sphere_sobolev(x, theta=theta))
        vals["ca100"] = ca_statistic(x, 100, rng_ca)
        vals["cvm"] = cvm_statistic(x, theta=theta)
    return vals
