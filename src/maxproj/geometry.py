"""Hypersphere primitives.

Surface areas, uniform sampling, direction covers and coordinate handling for
points on the unit sphere of R^d.  Directions are plain ``(d,)`` arrays, and
point sets and covers are plain ``(n, d)`` arrays of unit rows.
"""

import math

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


def make_cover(d, m, seed):
    """Uniform random cover of S^{d-1} as an ``(m, d)`` array, bit-reproducible from ``seed``.

    ``seed`` is a Generator, whose next ``m`` uniform directions are the
    cover, or an int standing for the stream ``(seed, NS_COVER)``.  Every
    cover of the commands is drawn here, each from its own stream.  Requires
    ``m >= d`` so that the cover spans R^d and downstream covariance
    matrices have full column space.
    """
    if m < d:
        raise InputError(f"cover size {m} must be at least d = {d}")
    rng = seed if isinstance(seed, np.random.Generator) else stream(seed, NS_COVER)
    return uniform_points(d, m, rng)


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
