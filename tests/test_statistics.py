import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special as sps

from maxproj import InputError
from maxproj.geometry import make_cover, random_rotation, uniform_points
from maxproj.rng import stream
from maxproj.samplers import VonMisesFisher, sample
from maxproj.statistics import (
    _direct_values,
    _moment_route_cheaper,
    _moment_values,
    ca_statistic,
    ca_test,
    circle_classical,
    cvm_kernel,
    cvm_statistic,
    cvm_test,
    ks_statistic,
    max_projection_stat,
    max_projection_values,
    projection_cdf,
    sphere_sobolev,
    t1_closed,
    t2_closed,
    t_stat,
)


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
    out = t_stat(x, 1, cover)
    assert out.value <= 1.0 + 1e-12
    assert t1_closed(x) == pytest.approx(1.0, abs=1e-15)
    assert out.method == "random_cover"
    assert out.metadata["m"] == 500


@pytest.mark.parametrize("d", (2, 3))
def test_cover_estimator_close_to_closed_forms(d):
    x = uniform_points(d, 50, stream(21, d))
    cover = make_cover(d, 5000, seed=9)
    v1 = max_projection_stat(x, 1, cover.points)
    v2 = max_projection_stat(x, 2, cover.points)
    assert 0.99 * t1_closed(x) <= v1 <= t1_closed(x) + 1e-12
    assert 0.99 * t2_closed(x) <= v2 <= t2_closed(x) + 1e-12


def test_cover_monotone_in_nested_covers():
    x = uniform_points(3, 40, stream(22))
    small = make_cover(3, 500, seed=4)
    big = make_cover(3, 2000, seed=4)
    for beta in (1, 3, 4):
        assert max_projection_stat(x, beta, big.points) >= max_projection_stat(
            x, beta, small.points
        )


def test_dimension_mismatch_rejected():
    with pytest.raises(InputError):
        max_projection_stat(np.eye(3), 1, np.eye(2))


# --- the two routes of max_projection_values ------------------------------------

ROUTES = (_direct_values, _moment_values)
ROUTE_SETTINGS = settings(max_examples=30, deadline=None, derandomize=True)


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
    direct = _direct_values(x, betas, cover, 512)
    moment = _moment_values(x, betas, cover, 512)
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
    moment = _moment_values(x, [1, 2], cover, 512)
    assert moment[1] <= t1_closed(x) + 1e-12
    assert moment[2] <= t2_closed(x) + 1e-12


@ROUTE_SETTINGS
@given(d=st.sampled_from((2, 3, 4, 5)), n=st.sampled_from((20, 100)), seed=st.integers(0, 2**16))
def test_routes_rotation_invariant(d, n, seed):
    x, cover = _route_case(d, n, seed)
    rot = random_rotation(d, stream(60, seed, 2))
    betas = [3, 4, 5, 6]
    for route in ROUTES:
        base = route(x, betas, cover, 512)
        rotated = route(x @ rot.T, betas, cover @ rot.T, 512)
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
        small = route(x, betas, cover[:m_small], 512)
        big = route(x, betas, cover, 512)
        for b in betas:
            assert big[b] >= small[b] * (1.0 - 1e-12)


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
    assert max_projection_values(x, [3, 6], cover) == _moment_values(x, [3, 6], cover, 512)


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
    out = sphere_sobolev(np.eye(2), include_gine=False)
    assert out["bingham"] == pytest.approx(0.0, abs=1e-12)


def test_gine_orthogonal_pair_d3():
    out = sphere_sobolev(np.eye(3)[:2])
    # prefactor (d-1) Gamma(d/2-1)^2 / (2 n Gamma(d/2)^2) = 2 at d=3, n=2
    assert out["gine"] == pytest.approx(-1.0, abs=1e-12)


def test_gine_requires_d3():
    with pytest.raises(InputError):
        sphere_sobolev(np.eye(2), include_gine=True)


def test_rayleigh_mod_antipodal_pair():
    x = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    out = sphere_sobolev(x)
    assert out["rayleigh_mod"] == pytest.approx(0.0, abs=1e-12)


def test_circle_and_sphere_ajne_agree_at_d2():
    x = from_angles([0.1, 1.2, 2.9, 4.4])
    a = circle_classical(x)["ajne"]
    b = sphere_sobolev(x, include_gine=False)["ajne"]
    assert a == pytest.approx(b, abs=1e-12)


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
    v = max_projection_stat(x, 4, cover.points)
    vr = max_projection_stat(xr, 4, cover.points @ rot.T)
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
    out = ca_test(x, 1, stream(26, 0))
    assert out.value == pytest.approx(expect, abs=1e-12)
    assert out.metadata["tail"] == "lower"


def test_ca_statistic_matches_per_column_loop():
    for d, q in ((2, 25), (3, 100), (5, 100)):
        for r in range(40):
            x = uniform_points(d, 50, stream(28, d, r))
            proj = x @ uniform_points(d, q, stream(29, d, r)).T
            expect = min(
                sps.kolmogorov(math.sqrt(50) * ks_statistic(proj[:, j], d=d)) for j in range(q)
            )
            assert ca_statistic(x, q, stream(29, d, r)) == expect


# --- projected Cramer-von Mises -------------------------------------------------


def test_cvm_kernel_closed_values():
    assert cvm_kernel(2, math.pi) == pytest.approx(0.25, abs=1e-12)
    assert cvm_kernel(3, 0.0) == pytest.approx(0.5, abs=1e-12)
    # every dimension shares the endpoint values zeta(0) = 1/2, zeta(pi) = 1/4
    for d in (2, 3, 4, 5, 7):
        assert cvm_kernel(d, 0.0) == pytest.approx(0.5, abs=1e-6)
        assert cvm_kernel(d, math.pi) == pytest.approx(0.25, abs=1e-6)


def test_cvm_kernel_quadrature_branch_is_continuous_in_d():
    # d = 4 closed form vs d = 4 + eps quadrature surrogate: compare d=5 grid
    theta = np.linspace(0.01, math.pi - 0.01, 25)
    v4 = cvm_kernel(4, theta)
    v5 = cvm_kernel(5, theta)
    assert np.all(np.isfinite(v4)) and np.all(np.isfinite(v5))
    assert np.max(np.abs(v4 - v5)) < 0.06


def test_cvm_statistic_runs_for_high_dimension():
    x = uniform_points(5, 40, stream(27))
    out = cvm_test(x)
    assert np.isfinite(out.value)


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
