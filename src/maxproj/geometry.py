"""Hypersphere primitives.

Surface areas, uniform sampling, direction covers and coordinate handling for
points on the unit sphere of R^d.  Directions are plain ``(d,)`` arrays and
point sets are ``(n, d)`` arrays of unit rows; the two small dataclasses below
only add metadata (sample size, reproducibility seed) on top.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from ._errors import InputError
from .rng import NS_COVER, as_generator, stream

#: rows farther than this from unit norm get renormalized
UNIT_TOL = 1e-12
#: rows with norm below this cannot be repaired and are rejected
REPAIR_FLOOR = 1e-8


def surface_area(d):
    """Surface area of the unit sphere S^{d-1} in R^d, 2*pi^{d/2}/Gamma(d/2)."""
    if d <= 0:
        raise InputError(f"dimension must be positive, got {d}")
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def normalize_rows(arr):
    """Project rows of ``arr`` onto the unit sphere.

    Returns
    -------
    unit : ndarray
        Normalized copy of ``arr``.
    repaired : ndarray of bool
        Rows whose norm deviated from 1 by more than ``UNIT_TOL``.
    bad : ndarray of bool
        Rows with norm below ``REPAIR_FLOOR`` or not finite (a NaN or
        infinite coordinate); these are left untouched in ``unit`` and must
        be dropped or reported by the caller.
    """
    arr = np.asarray(arr, dtype=float)
    norms = np.linalg.norm(arr, axis=-1)
    bad = ~np.isfinite(norms) | (norms < REPAIR_FLOOR)
    repaired = (np.abs(norms - 1.0) > UNIT_TOL) & ~bad
    safe = np.where(bad, 1.0, norms)
    unit = arr / safe[..., None]
    return unit, repaired, bad


def as_unit_vector(v):
    """Validate/normalize a single direction vector."""
    unit, _, bad = normalize_rows(np.atleast_2d(v))
    if bad.any():
        raise InputError("direction has (near-)zero or non-finite norm and cannot be normalized")
    return unit[0]


@dataclass(frozen=True)
class SphericalSample:
    """An ``(n, d)`` array of unit row vectors."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 2:
            raise InputError(f"expected an (n, d) array with d >= 2, got shape {pts.shape}")
        object.__setattr__(self, "points", pts)

    @classmethod
    def from_array(cls, arr):
        """Build a sample, renormalizing slightly off-sphere rows.

        Rows with norm below ``REPAIR_FLOOR`` raise :class:`InputError`.
        """
        unit, _, bad = normalize_rows(np.atleast_2d(np.asarray(arr, dtype=float)))
        if bad.any():
            rows = np.flatnonzero(bad)
            raise InputError(f"rows {rows.tolist()} have norm < {REPAIR_FLOOR:g}")
        return cls(unit)

    @property
    def n(self):
        return self.points.shape[0]

    @property
    def d(self):
        return self.points.shape[1]


@dataclass(frozen=True)
class DirectionCover:
    """A reproducible set of ``m`` uniform directions used to scan maxima."""

    points: np.ndarray
    seed: int = field(default=0)

    @property
    def m(self):
        return self.points.shape[0]

    @property
    def d(self):
        return self.points.shape[1]


def as_points(obj):
    """Accept a SphericalSample, DirectionCover or bare array; return the array."""
    if isinstance(obj, (SphericalSample, DirectionCover)):
        return obj.points
    return np.asarray(obj, dtype=float)


def uniform_points(d, n, rng):
    """Raw ``(n, d)`` array of iid uniform directions (normalized Gaussians)."""
    if d < 2:
        raise InputError(f"dimension must be >= 2, got {d}")
    if n < 1:
        raise InputError(f"need n >= 1 draws, got {n}")
    rng = as_generator(rng)
    x = rng.standard_normal((n, d))
    norms = np.linalg.norm(x, axis=1)
    # an exactly degenerate Gaussian draw has probability zero but guard anyway
    while (redo := norms < REPAIR_FLOOR).any():
        x[redo] = rng.standard_normal((int(redo.sum()), d))
        norms = np.linalg.norm(x, axis=1)
    return x / norms[:, None]


def sample_uniform(d, n, rng):
    """Sample ``n`` iid uniform directions on S^{d-1} as a SphericalSample."""
    return SphericalSample(uniform_points(d, n, rng))


def make_cover(d, m, seed):
    """Uniform random cover of S^{d-1}, bit-reproducible from ``seed``.

    Requires ``m >= d`` so that downstream covariance matrices have full
    column space.
    """
    if m < 1:
        raise InputError(f"cover size must be >= 1, got {m}")
    if m < d:
        raise InputError(f"cover size {m} is smaller than the dimension {d}")
    pts = uniform_points(d, m, stream(seed, NS_COVER))
    return DirectionCover(points=pts, seed=int(seed))


def latlon_to_unit(lat_deg, lon_deg):
    """Convert latitude/longitude in degrees to a unit vector in R^3.

    Latitude must lie in [-90, 90]; longitude accepts both the [-180, 180)
    and [0, 360) conventions.
    """
    lat = float(lat_deg)
    lon = float(lon_deg)
    if not -90.0 <= lat <= 90.0:
        raise InputError(f"latitude {lat} outside [-90, 90]")
    if not -180.0 <= lon < 360.0:
        raise InputError(f"longitude {lon} outside [-180, 360)")
    if lon >= 180.0:
        lon -= 360.0
    la = math.radians(lat)
    lo = math.radians(lon)
    v = np.array([math.cos(la) * math.cos(lo), math.cos(la) * math.sin(lo), math.sin(la)])
    return v / np.linalg.norm(v)


def random_rotation(d, rng):
    """A Haar-random rotation matrix from SO(d) (QR of a Gaussian matrix)."""
    rng = as_generator(rng)
    a = rng.standard_normal((d, d))
    q, r = np.linalg.qr(a)
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q
