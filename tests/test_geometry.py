import math

import numpy as np
import pytest

from maxproj import InputError
from maxproj.geometry import (
    latlon_to_unit,
    make_cover,
    normalize_rows,
    surface_area,
    uniform_points,
)
from maxproj.legendre import psi
from maxproj.rng import NS_COVER, stream
from oracles import random_rotation


def test_surface_area_known_values():
    assert surface_area(2) == pytest.approx(2.0 * math.pi, abs=1e-12)
    assert surface_area(3) == pytest.approx(4.0 * math.pi, abs=1e-12)
    # 2 pi^{5/2} / Gamma(5/2) = 8 pi^2 / 3, frozen from the exact reduction
    assert surface_area(5) == pytest.approx(26.31894506957162, abs=1e-10)
    assert surface_area(1) == pytest.approx(2.0, abs=1e-14)


def test_surface_area_rejects_nonpositive_dimension():
    with pytest.raises(InputError):
        surface_area(0)
    with pytest.raises(InputError):
        surface_area(-3)


@pytest.mark.parametrize("d", range(3, 13))
def test_surface_area_ratio_identity(d):
    ratio = surface_area(d - 1) / surface_area(d)
    target = math.gamma(d / 2.0) / (math.sqrt(math.pi) * math.gamma((d - 1) / 2.0))
    assert ratio == pytest.approx(target, abs=1e-12)


def test_sample_uniform_unit_norms_and_determinism():
    s1 = uniform_points(7, 500, stream(9, 1))
    s2 = uniform_points(7, 500, stream(9, 1))
    norms = np.linalg.norm(s1, axis=1)
    assert np.max(np.abs(norms - 1.0)) <= 1e-12
    assert np.array_equal(s1, s2)


def test_sample_uniform_mean_vector_clt_bound():
    # ||mean||^2 ~ chi2_d / (n d): P(||mean|| <= 4/sqrt(n d)) = P(chi2_3 <= 16) ~ 0.9989
    n, d, reps = 100_000, 3, 300
    hits = 0
    for r in range(reps):
        x = uniform_points(d, n, stream(123, r))
        hits += np.linalg.norm(x.mean(axis=0)) <= 4.0 / math.sqrt(n * d)
    assert hits / reps >= 0.99


def test_sample_uniform_projection_second_moment():
    n, d = 100_000, 2
    x = uniform_points(d, n, stream(77))
    t2 = x[:, 0] ** 2
    var = psi(d, 4) - psi(d, 2) ** 2
    assert abs(t2.mean() - 1.0 / d) <= 3.0 * math.sqrt(var / n)


def test_latlon_cardinal_points():
    np.testing.assert_allclose(latlon_to_unit(0, 0), [1, 0, 0], atol=1e-12)
    np.testing.assert_allclose(latlon_to_unit(90, 123.4), [0, 0, 1], atol=1e-12)
    np.testing.assert_allclose(latlon_to_unit(0, 90), [0, 1, 0], atol=1e-12)


def test_latlon_longitude_conventions_agree():
    west = latlon_to_unit(12.5, -70.0)
    wrapped = latlon_to_unit(12.5, 290.0)
    np.testing.assert_allclose(west, wrapped, atol=1e-12)


def test_latlon_rejects_bad_latitude():
    with pytest.raises(InputError):
        latlon_to_unit(91.0, 0.0)
    with pytest.raises(InputError):
        latlon_to_unit(-90.5, 10.0)


def test_make_cover_is_reproducible_bit_for_bit():
    c1 = make_cover(4, 100, seed=42)
    c2 = make_cover(4, 100, seed=42)
    assert np.array_equal(c1, c2)
    assert c1.shape == (100, 4)
    c3 = make_cover(4, 100, seed=43)
    assert not np.array_equal(c1, c3)


def test_make_cover_nested_prefix():
    small = make_cover(3, 200, seed=5)
    big = make_cover(3, 800, seed=5)
    assert np.array_equal(big[:200], small)


def test_make_cover_high_dimension_unit_norms():
    cover = make_cover(10, 20_000, seed=8)
    assert np.max(np.abs(np.linalg.norm(cover, axis=1) - 1.0)) <= 1e-12


def test_make_cover_covering_radius_circle():
    # exact on the circle: covering radius is half the largest angular gap
    cover = make_cover(2, 5000, seed=31)
    ang = np.sort(np.mod(np.arctan2(cover[:, 1], cover[:, 0]), 2 * math.pi))
    gaps = np.diff(np.append(ang, ang[0] + 2 * math.pi))
    assert gaps.max() / 2.0 <= 0.01


@pytest.mark.parametrize("d, m", [(2, 7), (3, 500), (10, 40)])
def test_make_cover_takes_a_generator_or_an_int(d, m):
    assert np.array_equal(make_cover(d, m, stream(4, 2, 9)),
                          uniform_points(d, m, stream(4, 2, 9)))
    assert np.array_equal(make_cover(d, m, 17), uniform_points(d, m, stream(17, NS_COVER)))


def test_make_cover_size_preconditions():
    with pytest.raises(InputError):
        make_cover(3, 0, seed=1)
    with pytest.raises(InputError):
        make_cover(5, 3, seed=1)


def test_normalize_rows_repair_policy():
    arr = np.array([[1.0, 0.0], [0.0, 2.0], [1e-9, 0.0], [np.nan, 0.5], [np.inf, 1.0]])
    unit, repaired, bad = normalize_rows(arr)
    assert repaired.tolist() == [False, True, False, False, False]
    assert bad.tolist() == [False, False, True, True, True]
    np.testing.assert_allclose(unit[1], [0, 1], atol=1e-15)


def test_random_rotation_is_special_orthogonal():
    for r in range(5):
        rot = random_rotation(4, stream(55, r))
        np.testing.assert_allclose(rot @ rot.T, np.eye(4), atol=1e-12)
        assert np.linalg.det(rot) == pytest.approx(1.0, abs=1e-12)
