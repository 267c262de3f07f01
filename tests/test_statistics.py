import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import special as sps

import maxproj.statistics as statistics
from maxproj import InputError
from maxproj.geometry import make_cover, uniform_points
from maxproj.legendre import psi
from maxproj.rng import stream
from maxproj.samplers import VonMisesFisher, sample
from maxproj.statistics import (
    _direct_profiles,
    _moment_profiles,
    _moment_route_cheaper,
    ca_statistic,
    circle_classical,
    cvm_kernel,
    cvm_statistic,
    evaluate_battery,
    max_projection_values,
    projection_cdf,
    sphere_sobolev,
    t1_closed,
    t2_closed,
)
from oracles import cvm_kernel_quad, ks_statistic, random_rotation


def from_angles(angles):
    a = np.asarray(angles, dtype=float)
    return np.column_stack([np.cos(a), np.sin(a)])


# --- closed forms ------------------------------------------------------------


def test_t1_closed_antipodal_pair_vanishes():
    x = np.array([[0.6, 0.8], [-0.6, -0.8]])
    assert t1_closed(x) == pytest.approx(0.0, abs=1e-15)


def test_t2_closed_orthonormal_pair_vanishes():
    x = np.eye(2)
    assert t2_closed(x) == pytest.approx(0.0, abs=1e-15)


def test_t2_closed_single_point():
    # S = diag(1, 0), eigenvalues of S - I/2 are +-1/2 -> statistic 1/4
    x = np.array([[1.0, 0.0]])
    assert t2_closed(x) == pytest.approx(0.25, abs=1e-15)


def test_cover_value_never_exceeds_true_maximum():
    x = np.array([[1.0, 0.0]])
    cover = make_cover(2, 500, seed=3)
    assert max_projection_values(x, [1], cover)[1] <= 1.0 + 1e-12
    assert t1_closed(x) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("d", (2, 3))
def test_cover_estimator_close_to_closed_forms(d):
    x = uniform_points(d, 50, stream(21, d))
    cover = make_cover(d, 5000, seed=9)
    vals = max_projection_values(x, [1, 2], cover)
    v1, v2 = vals[1], vals[2]
    assert 0.99 * t1_closed(x) <= v1 <= t1_closed(x) + 1e-12
    assert 0.99 * t2_closed(x) <= v2 <= t2_closed(x) + 1e-12


def test_cover_monotone_in_nested_covers():
    x = uniform_points(3, 40, stream(22))
    small = make_cover(3, 500, seed=4)
    big = make_cover(3, 2000, seed=4)
    on_big = max_projection_values(x, (1, 3, 4), big)
    on_small = max_projection_values(x, (1, 3, 4), small)
    for beta in (1, 3, 4):
        assert on_big[beta] >= on_small[beta]


def test_dimension_mismatch_rejected():
    with pytest.raises(InputError):
        max_projection_values(np.eye(3), [1], np.eye(2))
    with pytest.raises(InputError, match="no direction"):
        max_projection_values(np.eye(3), [3], np.empty((0, 3)))
    with pytest.raises(InputError, match="array of points"):
        max_projection_values(np.ones(3), [3], np.eye(3))
    with pytest.raises(InputError, match="array of points"):
        max_projection_values(np.eye(3), [3], np.ones(3))


@pytest.mark.parametrize("n, moment_route", [(100, True), (20, False)])
def test_non_finite_or_empty_sample_rejected(n, moment_route):
    betas = [3, 4, 5, 6]
    cover = uniform_points(3, 5000, stream(61, 1))
    assert _moment_route_cheaper(3, n, 5000, betas[-1]) is moment_route
    x = uniform_points(3, n, stream(61, 0))
    for bad in (np.nan, np.inf):
        y = x.copy()
        y[5, 1] = bad
        with pytest.raises(InputError, match="non-finite"):
            max_projection_values(y, betas, cover)
    # an empty sample would take the direct route
    assert not _moment_route_cheaper(3, 0, 5000, betas[-1])
    with pytest.raises(InputError, match="no point"):
        max_projection_values(np.empty((0, 3)), betas, cover)


@pytest.mark.parametrize("statistic", [
    t1_closed, t2_closed, circle_classical, sphere_sobolev, cvm_statistic,
    lambda x: ca_statistic(x, 25, stream(63)),
    lambda x: evaluate_battery(x, [1]),
], ids=["t1_closed", "t2_closed", "circle_classical", "sphere_sobolev", "cvm_statistic",
        "ca_statistic", "evaluate_battery"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, "empty", "one column", "one axis"])
def test_non_finite_sample_rejected_by_every_statistic(statistic, bad):
    x = uniform_points(2, 30, stream(62))
    if bad == "empty":
        x, message = x[:0], "sample holds no point"
    elif bad == "one axis":
        x, message = x[:, 0], r"expected an \(n, d\) array of points, got shape \(30,\)"
    elif bad == "one column":
        x, message = x[:, :1], "dimension must be an integer >= 2, got 1"
    else:
        x[4, 0], message = bad, "sample holds a non-finite"
    with pytest.raises(InputError, match=message):
        statistic(x)


@pytest.mark.parametrize("n, moment_route", [(100, True), (20, False)])
def test_non_finite_cover_rejected(n, moment_route):
    x = uniform_points(3, n, stream(1))
    cover = uniform_points(3, 5000, stream(2))
    assert _moment_route_cheaper(3, n, 5000, 6) is moment_route
    one_row, every_row = cover.copy(), np.full_like(cover, np.nan)
    one_row[0] = np.nan
    for bad in (one_row, every_row):
        with pytest.raises(InputError, match="cover holds a non-finite"):
            max_projection_values(x, [3, 4, 5, 6], bad)


# --- the two routes of max_projection_values ------------------------------------

ROUTES = (_direct_profiles, _moment_profiles)
ROUTE_SETTINGS = settings(max_examples=30, deadline=None, derandomize=True)


def route_values(route, x, betas, cover):
    """:func:`max_projection_values` on ``route``, whichever route its rule would pick."""
    moment = route is _moment_profiles
    with mock.patch.object(statistics, "_moment_route_cheaper", lambda *args: moment):
        return max_projection_values(x, betas, cover)


def _route_case(d, n, seed, m=300):
    return uniform_points(d, n, stream(60, seed, 0)), uniform_points(d, m, stream(60, seed, 1))


@ROUTE_SETTINGS
@given(
    d=st.sampled_from((2, 3, 4, 5)),
    n=st.sampled_from((1, 20, 100, 1000)),
    betas=st.sets(st.integers(1, 12), min_size=1),
    seed=st.integers(0, 2**16),
)
def test_moment_route_matches_direct_route(d, n, betas, seed):
    x, cover = _route_case(d, n, seed)
    betas = sorted(betas)
    direct = route_values(_direct_profiles, x, betas, cover)
    moment = route_values(_moment_profiles, x, betas, cover)
    for b in betas:
        assert abs(moment[b] - direct[b]) <= 1e-12 * direct[b], (b, moment[b], direct[b])


@ROUTE_SETTINGS
@given(
    d=st.sampled_from((2, 3, 4, 5)),
    n=st.sampled_from((1, 20, 100, 1000)),
    seed=st.integers(0, 2**16),
)
def test_moment_route_never_exceeds_closed_forms(d, n, seed):
    x, cover = _route_case(d, n, seed, m=2000)
    moment = route_values(_moment_profiles, x, [1, 2], cover)
    assert moment[1] <= t1_closed(x) + 1e-12
    assert moment[2] <= t2_closed(x) + 1e-12


@ROUTE_SETTINGS
@given(d=st.sampled_from((2, 3, 4, 5)), n=st.sampled_from((20, 100)), seed=st.integers(0, 2**16))
def test_routes_rotation_invariant(d, n, seed):
    x, cover = _route_case(d, n, seed)
    rot = random_rotation(d, stream(60, seed, 2))
    betas = [3, 4, 5, 6]
    for route in ROUTES:
        base = route_values(route, x, betas, cover)
        rotated = route_values(route, x @ rot.T, betas, cover @ rot.T)
        for b in betas:
            assert rotated[b] == pytest.approx(base[b], rel=1e-9, abs=1e-12)


@ROUTE_SETTINGS
@given(
    d=st.sampled_from((2, 3, 4, 5)),
    n=st.sampled_from((20, 100)),
    m_small=st.integers(5, 700),
    seed=st.integers(0, 2**16),
)
def test_routes_monotone_in_nested_covers(d, n, m_small, seed):
    x, cover = _route_case(d, n, seed, m=1500)
    betas = [1, 2, 3, 4, 6]
    for route in ROUTES:
        small = route_values(route, x, betas, cover[:m_small])
        big = route_values(route, x, betas, cover)
        for b in betas:
            assert big[b] >= small[b] * (1.0 - 1e-12)


def _gather_moment_values(x, betas, cov, block=512):
    """The moment route as first written, kept as the oracle of the slice build.

    Degree k's monomials are degree k-1's rows gathered by index times the
    coordinates gathered by index, in fresh arrays, both sides in blocks of
    ``block`` points.
    """
    n, d = x.shape
    exponents, steps = [np.eye(d, dtype=np.int64)], []
    for k in range(2, betas[-1] + 1):
        prefix = [math.comb(k - 1 + j, j) for j in range(d)]
        parent = np.concatenate([np.arange(p) for p in prefix])
        variable = np.repeat(np.arange(d), prefix)
        exponents.append(exponents[-1][parent] + np.eye(d, dtype=np.int64)[variable])
        steps.append((parent, variable))
    coefficients = [
        np.array([math.factorial(k) // math.prod(math.factorial(int(a)) for a in row)
                  for row in exps], dtype=float)
        for k, exps in enumerate(exponents, start=1)
    ]

    def monomials(points):
        out = [np.ascontiguousarray(points.T)]
        for parent, variable in steps:
            out.append(out[-1][parent] * out[0][variable])
        return out

    sums = dict.fromkeys(betas, 0.0)
    for start in range(0, n, block):
        feats = monomials(x[start : start + block])
        for b in betas:
            sums[b] = sums[b] + feats[b - 1].sum(axis=1)
    weights = {b: coefficients[b - 1] * (sums[b] / n) for b in betas}
    best = dict.fromkeys(betas, 0.0)
    for start in range(0, cov.shape[0], block):
        feats = monomials(cov[start : start + block])
        for b in betas:
            dev = weights[b] @ feats[b - 1]
            dev -= psi(d, b)
            best[b] = max(best[b], float(np.max(dev * dev)))
    return {b: n * v for b, v in best.items()}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    d=st.integers(2, 7),
    n=st.sampled_from((1, 2, 7, 100, 511, 512, 513, 1100, 1911)),
    m=st.sampled_from((1, 3, 4, 515, 1027, 1539, 2051, 5000)) | st.integers(1, 5200),
    betas=st.just([1, 2]) | st.lists(st.integers(1, 9), min_size=1, max_size=4, unique=True),
    peak_last=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_moment_route_is_bit_equal_to_the_gather_build(d, n, m, betas, peak_last, seed):
    betas = sorted(betas)
    assume(math.comb(betas[-1] + d, d) - 1 <= 2000)
    x, cover = _route_case(d, n, seed, m=m)
    if peak_last:
        # tilt the sample toward a pole and end the cover near it, so that the
        # maximum sits in the cover's last columns, which gemv sums apart
        pole = np.eye(d)[0]
        x = x + pole
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        k = min(3, m)
        cover[-k:] = pole + 1e-3 * cover[-k:]
        cover /= np.linalg.norm(cover, axis=1, keepdims=True)
    moment = route_values(_moment_profiles, x, betas, cover)
    assert moment == _gather_moment_values(x, betas, cover)


#: _moment_route_cheaper over n in ROUTE_GRID_N (space-separated groups) and
#: m in ROUTE_GRID_M (letters): M for the moment route, . for the direct one
ROUTE_GRID_N = (10, 30, 100, 300, 1000, 3000, 10**6)
ROUTE_GRID_M = (300, 3000, 30000)
ROUTE_TABLE = {
    (2, 3): "MMM MMM MMM MMM MMM MMM MMM",
    (2, 6): "MMM MMM MMM MMM MMM MMM MMM",
    (2, 9): "... MMM MMM MMM MMM MMM MMM",
    (3, 3): "MMM MMM MMM MMM MMM MMM MMM",
    (3, 6): "... MMM MMM MMM MMM MMM MMM",
    (3, 9): "... ... MMM MMM MMM MMM MMM",
    (5, 3): "... MMM MMM MMM MMM MMM MMM",
    (5, 6): "... ... ... MMM MMM MMM MMM",
    (5, 9): "... ... ... ... ... .MM .MM",
    (7, 3): "... ... MMM MMM MMM MMM MMM",
    (7, 6): "... ... ... ... ..M .MM .MM",
    (7, 9): "... ... ... ... ... ... ...",
}


def test_route_choice_is_pinned():
    # the route is part of the output bytes: a changed rule changes the tables
    for (d, beta_max), row in ROUTE_TABLE.items():
        got = " ".join(
            "".join("M" if _moment_route_cheaper(d, n, m, beta_max) else "." for m in ROUTE_GRID_M)
            for n in ROUTE_GRID_N
        )
        assert got == row, (d, beta_max)


def test_route_dispatch():
    # beta_max = 6: R = 461 monomials at d = 5 outweigh n = 100 sample points
    assert not _moment_route_cheaper(5, 100, 20000, 6)
    assert _moment_route_cheaper(3, 100, 5000, 6)
    assert _moment_route_cheaper(3, 1000, 5000, 6)
    # R = 11439 monomials: the cost terms alone would pick the moment route,
    # the cap on its feature arrays does not
    assert not _moment_route_cheaper(7, 10**7, 20000, 9)
    x = uniform_points(3, 1000, stream(61))
    cover = uniform_points(3, 700, stream(62))
    moment = route_values(_moment_profiles, x, [3, 6], cover)
    assert max_projection_values(x, [3, 6], cover) == moment


# --- circle battery ----------------------------------------------------------


def test_circle_examples_two_opposite_points():
    x = from_angles([0.0, math.pi])
    out = circle_classical(x)
    assert out["ajne"] == pytest.approx(0.0, abs=1e-12)
    assert out["rayleigh_mod"] == pytest.approx(0.0, abs=1e-12)
    # X = (0, 1/2): D+ = sqrt(2) max(1/2 - 0, 1 - 1/2), D- = 0
    assert out["kuiper"] == pytest.approx(math.sqrt(2.0) * 0.5, abs=1e-12)


def test_circle_watson_single_point():
    out = circle_classical(from_angles([0.0]))
    assert out["watson_u2"] == pytest.approx(1.0 / 12.0, abs=1e-12)


def test_circle_requires_d2():
    with pytest.raises(InputError):
        circle_classical(np.eye(3))


# --- sphere battery ----------------------------------------------------------


def test_bingham_orthonormal_frame_vanishes():
    out = sphere_sobolev(np.eye(2))
    assert out["bingham"] == pytest.approx(0.0, abs=1e-12)
    assert "gine" not in out  # Gine is defined here only for d >= 3


def test_gine_orthogonal_pair_d3():
    out = sphere_sobolev(np.eye(3)[:2])
    # prefactor (d-1)/(2n) (Gamma(1)/Gamma(3/2))^2 = 2/pi at d=3, n=2, and sin(pi/2) = 1
    assert out["gine"] == pytest.approx(1.0 - 2.0 / math.pi, abs=1e-12)


@pytest.mark.parametrize("d", [3, 5, 10, 100])
def test_gine_matches_the_gamma_form(d):
    # the prefactor (d-1) Gamma((d-1)/2)^2 / (2 n Gamma(d/2)^2), whose gamma
    # functions overflow at d >= 344, is taken through lgamma; compared on
    # n/2 - G_n, since G_n itself cancels to about 1/2
    n = 30
    x = uniform_points(d, n, stream(28, d))
    coeff = (d - 1.0) * math.gamma((d - 1) / 2.0) ** 2 / (2.0 * n * math.gamma(d / 2.0) ** 2)
    total = coeff * np.sum(np.sin(statistics._pairwise_angles(x)))
    assert n / 2.0 - sphere_sobolev(x)["gine"] == pytest.approx(total, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("d", [3, 5, 10, 100])
def test_gine_null_mean_is_one_half(d):
    # E G_n = 1/2 under uniformity for every n and d (Gine 1975)
    rng = stream(29, d)
    vals = np.array([sphere_sobolev(uniform_points(d, 30, rng))["gine"] for _ in range(2000)])
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(vals.mean() - 0.5) <= 4.0 * se


def test_rayleigh_mod_antipodal_pair():
    x = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    out = sphere_sobolev(x)
    assert out["rayleigh_mod"] == pytest.approx(0.0, abs=1e-12)


def test_circle_and_sphere_ajne_agree_at_d2():
    x = from_angles([0.1, 1.2, 2.9, 4.4])
    a = circle_classical(x)["ajne"]
    b = sphere_sobolev(x)["ajne"]
    assert a == pytest.approx(b, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 7, 100])
def test_pairwise_angles_match_the_full_matrix(n):
    # the upper triangle is taken before clip and arccos, which act per element
    x = uniform_points(3, n, stream(25, n))
    full = np.arccos(np.clip(x @ x.T, -1.0, 1.0))[np.triu_indices(n, k=1)]
    assert np.array_equal(statistics._pairwise_angles(x), full)
    assert not any(index.flags.writeable for index in statistics._upper_pairs(n))


# --- rotational invariance -----------------------------------------------------


def test_statistics_rotation_invariant():
    x = uniform_points(3, 30, stream(23))
    rot = random_rotation(3, stream(24))
    xr = x @ rot.T
    assert t1_closed(x) == pytest.approx(t1_closed(xr), abs=1e-9)
    assert t2_closed(x) == pytest.approx(t2_closed(xr), abs=1e-9)
    base = sphere_sobolev(x)
    rotated = sphere_sobolev(xr)
    for key in base:
        assert base[key] == pytest.approx(rotated[key], abs=1e-9)
    assert cvm_statistic(x) == pytest.approx(cvm_statistic(xr), abs=1e-9)
    cover = make_cover(3, 800, seed=14)
    v = max_projection_values(x, [4], cover)[4]
    vr = max_projection_values(xr, [4], cover @ rot.T)[4]
    assert v == pytest.approx(vr, abs=1e-9)


# --- projection CDF ------------------------------------------------------------


def test_projection_cdf_basics():
    for d in (2, 3, 5, 10):
        assert projection_cdf(d, 0.0) == pytest.approx(0.5, abs=1e-14)
        assert projection_cdf(d, -1.0) == 0.0
        assert projection_cdf(d, 1.0) == 1.0
        assert projection_cdf(d, -1.5) == 0.0 and projection_cdf(d, 1.5) == 1.0
        grid = projection_cdf(d, np.linspace(-1, 1, 1001))
        assert np.all(np.diff(grid) >= -1e-15)


def test_projection_cdf_closed_forms():
    y = np.linspace(-0.999, 0.999, 201)
    np.testing.assert_allclose(projection_cdf(2, y), 1.0 - np.arccos(y) / math.pi, atol=1e-12)
    np.testing.assert_allclose(projection_cdf(3, y), (1.0 + y) / 2.0, atol=1e-12)
    assert projection_cdf(3, 0.5) == pytest.approx(0.75, abs=1e-14)


@pytest.mark.parametrize("d", [2, 3])
def test_projection_cdf_closed_forms_match_betainc(d):
    # the closed forms replace the incomplete beta function at d = 2 and 3 and
    # agree with it to a few ulps (measured 2.2e-16 at d = 2, 1.1e-16 at d = 3)
    y = np.linspace(-1.0, 1.0, 200_001)
    old = 0.5 * (1.0 + np.sign(y) * sps.betainc(0.5, (d - 1) / 2.0, y * y))
    assert np.max(np.abs(projection_cdf(d, y) - old)) <= 4.5e-16


def test_ks_point_mass_at_upper_end():
    vals = np.ones(50)
    assert ks_statistic(vals, d=3) == pytest.approx(1.0, abs=1e-12)


def test_ca_single_projection_is_ks_pvalue():
    x = uniform_points(3, 60, stream(25))
    h = uniform_points(3, 1, stream(26, 0))
    proj = x @ h[0]
    expect = sps.kolmogorov(math.sqrt(60) * ks_statistic(proj, d=3))
    got = ca_statistic(x, 1, stream(26, 0))
    assert got == pytest.approx(expect, abs=1e-12)


def test_ca_statistic_matches_per_column_loop():
    for d, q in ((2, 25), (3, 100), (5, 100)):
        for r in range(40):
            x = uniform_points(d, 50, stream(28, d, r))
            proj = x @ uniform_points(d, q, stream(29, d, r)).T
            expect = min(
                sps.kolmogorov(math.sqrt(50) * ks_statistic(proj[:, j], d=d)) for j in range(q)
            )
            assert ca_statistic(x, q, stream(29, d, r)) == expect


#: both series of the Kolmogorov tail, with extra points below 0.05 (the
#: cut to 1 and the underflow fallback), around the cutover at 0.82, and up
#: to 40, where the tail underflows to 0 (from about x = 19.3)
KOLMOGOROV_GRID = np.concatenate([
    np.linspace(-1.0, 40.0, 200_001),
    np.linspace(0.0, 0.05, 20_001),
    np.linspace(0.80, 0.84, 20_001),
    0.82 + np.arange(-100, 101) * np.spacing(0.82),
    [math.pi / math.sqrt(8 * 746), math.inf],
])


def test_kolmogorov_sf_equals_scipy_on_grid():
    got = np.array([statistics._kolmogorov_sf(float(x)) for x in KOLMOGOROV_GRID])
    np.testing.assert_array_equal(got, sps.kolmogorov(KOLMOGOROV_GRID))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(a=st.floats(-1.0, 40.0), b=st.floats(-1.0, 40.0))
def test_kolmogorov_sf_is_scipys_tail(a, b):
    lo, hi = sorted((a, b))
    q_lo, q_hi = statistics._kolmogorov_sf(lo), statistics._kolmogorov_sf(hi)
    assert q_lo == sps.kolmogorov(lo) and q_hi == sps.kolmogorov(hi)
    # non-increasing up to the rounding of 1 - P, which scipy's evaluation
    # shares: it rises by one ulp between some adjacent floats near 0.45 and 0.75
    assert 0.0 <= q_hi <= q_lo + math.ulp(q_lo) and q_lo <= 1.0
    assert math.isnan(statistics._kolmogorov_sf(math.nan))


class _StableSortNumpy:
    """numpy, except that ``sort`` always sorts with ``kind="stable"``."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def sort(a, axis=-1, kind=None):
        return np.sort(a, axis=axis, kind="stable")


def _with_stable_sort(fn, *args):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(statistics, "np", _StableSortNumpy())
        return fn(*args)


_TIES = st.sampled_from((0.0, -0.0, 0.25, -0.5, 1.0, -1.0))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    d=st.integers(2, 5),
    n=st.integers(1, 40),
    copies=st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39)), max_size=20),
    zeros=st.lists(st.tuples(st.integers(0, 39), st.booleans()), max_size=6),
    values=st.lists(_TIES | st.floats(-1.0, 1.0), min_size=1, max_size=60),
    seed=st.integers(0, 2**16),
)
def test_sorted_statistics_match_the_stable_sort(d, n, copies, zeros, values, seed):
    # the sort keys are bare floats, so any sort kind gives the same values;
    # -0.0 and 0.0 may trade places, and both have projection CDF 0.5
    x = uniform_points(d, n, stream(seed))
    circle = from_angles(stream(seed, 1).uniform(0.0, 2.0 * math.pi, n))
    for i, j in copies:
        x[i % n] = x[j % n]
        circle[i % n] = circle[j % n]
    for i, negative in zeros:
        x[i % n] = -0.0 if negative else 0.0  # projections are exact zeros of either sign
        circle[i % n] = (1.0, -0.0 if negative else 0.0)
    assert ca_statistic(x, 25, stream(seed, 2)) == _with_stable_sort(
        ca_statistic, x, 25, stream(seed, 2))
    assert ks_statistic(values, d) == _with_stable_sort(ks_statistic, values, d)
    assert circle_classical(circle) == _with_stable_sort(circle_classical, circle)


# --- projected Cramer-von Mises -------------------------------------------------


def test_cvm_kernel_closed_values():
    # every dimension shares the endpoint values zeta(0) = 1/2, zeta(pi) = 1/4,
    # and the kernel falls from one to the other; d = 4 clips pi by 1e-9,
    # which leaves 6.2e-9 at zeta(pi)
    theta = np.linspace(0.0, math.pi, 1024)
    for d in (2, 3, 4, 5, 7, 20):
        vals = cvm_kernel(d, theta)
        assert cvm_kernel(d, 0.0) == pytest.approx(0.5, abs=1e-12), d
        assert cvm_kernel(d, math.pi) == pytest.approx(0.25, abs=1e-8 if d == 4 else 1e-12), d
        assert np.all((vals >= 0.25 - 1e-8) & (vals <= 0.5)), d
        assert np.all(np.diff(vals) <= 1e-12), d


@pytest.mark.parametrize("d", [5, 6, 10, 20, 300])
def test_cvm_kernel_table_matches_quadrature(d):
    # the fixed 64-point rule against one tight adaptive quadrature per angle
    # (measured largest gap 2.5e-14; a 32-point rule misses 1e-10 at d = 300)
    theta, vals = statistics._cvm_kernel_table(d)
    nodes = sorted({1, 2, 3, *range(31, 1020, 31), 1020, 1021, 1022})
    ref = [cvm_kernel_quad(d, theta[i]) for i in nodes]
    np.testing.assert_allclose(vals[nodes], ref, rtol=0.0, atol=1e-10)


def test_cvm_kernel_quadrature_branch_is_continuous_in_d():
    # d = 4 closed form vs d = 4 + eps quadrature surrogate: compare d=5 grid
    theta = np.linspace(0.01, math.pi - 0.01, 25)
    v4 = cvm_kernel(4, theta)
    v5 = cvm_kernel(5, theta)
    assert np.all(np.isfinite(v4)) and np.all(np.isfinite(v5))
    assert np.max(np.abs(v4 - v5)) < 0.06


def test_cvm_statistic_runs_for_high_dimension():
    x = uniform_points(5, 40, stream(27))
    assert np.isfinite(cvm_statistic(x))


def _level_check(stat_fn, d, n, null_seed, size_seed, crit_reps=4000, size_reps=1000):
    nulls = np.array(
        [stat_fn(uniform_points(d, n, stream(null_seed, r)), null_seed, r) for r in range(crit_reps)]
    )
    cv = np.quantile(nulls, 0.95)
    hits = sum(
        stat_fn(uniform_points(d, n, stream(size_seed, r)), size_seed, r) > cv
        for r in range(size_reps)
    )
    return hits / size_reps


def test_ca_level_d3():
    # CA rejects for small values; negate so the 95% upper quantile applies
    rate = _level_check(
        lambda x, s, r: -ca_statistic(x, 25, stream(s, r, 1)),
        3,
        100,
        null_seed=41,
        size_seed=42,
    )
    assert 0.04 <= rate <= 0.06


def test_cvm_level_d5():
    rate = _level_check(
        lambda x, s, r: cvm_statistic(x),
        5,
        100,
        null_seed=43,
        size_seed=44,
        crit_reps=12_000,
        size_reps=4_000,
    )
    assert 0.04 <= rate <= 0.06


def test_consistency_growth_under_fixed_alternative():
    # T_1 / n stabilizes at a positive constant under a concentrated alternative
    spec = VonMisesFisher(np.array([1.0, 0.0]), 1.0)
    means = []
    for n in (100, 400, 1600):
        vals = [t1_closed(sample(spec, n, stream(51, n, r))) / n for r in range(50)]
        means.append(np.mean(vals))
    assert means[-1] > 0.1
    assert abs(means[-1] - means[-2]) / means[-1] < 0.10
