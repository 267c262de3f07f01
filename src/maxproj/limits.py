"""Simulation of the limiting null distribution.

The statistic converges to the maximum of the squared centered Gaussian field
with the zonal covariance of :mod:`maxproj.kernels`.  Two simulation routes:

* ``simulate_kernel_max`` draws the field restricted to a random direction
  cover as a multivariate normal with the (singular) cover covariance matrix,
  factorized once by symmetric eigendecomposition with negative eigenvalues
  clipped at zero.  Works in any dimension.  The factorization is LAPACK's
  ``dsyevd`` through ``scipy.linalg.eigh``, run in place: the eigenvectors
  overwrite the covariance, so it holds about 3 m^2 doubles (the matrix and
  LAPACK's workspace), not the 5 m^2 of ``numpy.linalg.eigh``, which gives
  the same bits from a copy into a separate output.  ``scipy.linalg`` is
  imported inside the function, after the covariance is built.

* ``simulate_harmonic_max`` uses the finite spherical-harmonics expansion of
  the field: independent standard normal coefficients weighted by the square
  roots of the operator eigenvalues.  Implemented for d = 2 (Fourier basis)
  and d = 3 (real spherical harmonics up to order 6); other dimensions raise
  ``InputError``, since the kernel route covers them.

Both routes share a single cover per batch: the factorization/basis matrix is
built once and reused across replications, whose maxima are then iid.
"""

import math

import numpy as np

from ._errors import InputError, NumericalError, check_integer
from .geometry import make_cover, surface_area
from .kernels import ZonalKernel
from .legendre import harmonic_dim
from .rng import NS_LIMIT, stream

MAX_HARMONIC_BETA = 6

#: field draws per coefficient draw of the simulation routes; the chunk
#: width fixes the order of the stream, so it is part of the output bytes
_DRAW_CHUNK = 4096

#: field draws per matrix product: a slice narrower than this, or a column
#: moved between slices, can change the last bits of the product
_DRAW_SLICE = 256

#: bootstrap resamples behind a quantile's standard error
_BOOTSTRAP = 200

#: bootstrap resamples per vectorized quantile call: all 200 at once hold
#: 200 copies of the values in memory
_BOOTSTRAP_BLOCK = 25


# ---------------------------------------------------------------------------
# harmonic bases for d in {2, 3}


def harmonic_basis(d, orders, points):
    """Real spherical harmonics of the given orders at ``points``, for d in {2, 3}.

    Returns the ``(len(points), sum nu_d(k))`` basis matrix, orthonormal
    w.r.t. the surface measure, with the nu_d(k) columns of each order k in
    the order of ``orders``.  The addition identity sum_j phi_kj(u) phi_kj(v)
    = nu_d(k)/|S^{d-1}| P_k(u.v) holds per order.
    """
    if d not in (2, 3):
        raise InputError("harmonic bases implemented for d in {2, 3} only")
    for k in orders:
        check_integer(k, 0, "order")
    pts = np.asarray(points, dtype=float)
    blocks = [_circle_block(k, pts) if d == 2 else _real_sph_harm_block(k, pts)
              for k in orders]
    return np.hstack(blocks) if blocks else np.empty((pts.shape[0], 0))


def _circle_block(k, pts):
    """Fourier basis of order k on S^1, orthonormal w.r.t. arc length."""
    if k == 0:
        return np.full((pts.shape[0], 1), 1.0 / math.sqrt(surface_area(2)))
    phi = np.arctan2(pts[:, 1], pts[:, 0])
    scale = 1.0 / math.sqrt(math.pi)
    return np.column_stack([scale * np.cos(k * phi), scale * np.sin(k * phi)])


def _real_sph_harm_block(l, pts):
    """Real spherical harmonics of order l on S^2, orthonormal w.r.t. sigma."""
    from scipy import special as sps

    ct = np.clip(pts[:, 2], -1.0, 1.0)
    phi = np.arctan2(pts[:, 1], pts[:, 0])
    cols = []
    for m in range(-l, l + 1):
        am = abs(m)
        norm = math.sqrt(
            (2 * l + 1)
            / (4.0 * math.pi)
            * math.factorial(l - am)
            / math.factorial(l + am)
        )
        p = sps.lpmv(am, l, ct)
        if m == 0:
            cols.append(norm * p)
        elif m > 0:
            cols.append(math.sqrt(2.0) * norm * p * np.cos(am * phi))
        else:
            cols.append(math.sqrt(2.0) * norm * p * np.sin(am * phi))
    return np.column_stack(cols)


# ---------------------------------------------------------------------------
# simulation routes


def _batched_max_square(transfer, replications, rng):
    """Max of squared field values for N(0, I) coefficient draws.

    ``transfer`` has shape (m, r): field values = transfer @ coefficients.
    The coefficients are drawn ``_DRAW_CHUNK`` columns at a time; each chunk
    is multiplied, squared and maximized in slices of ``_DRAW_SLICE`` columns
    inside one m x (2 * _DRAW_SLICE - 1) buffer, the chunk's remainder riding
    in its last slice.
    """
    m, r = transfer.shape
    out = np.empty(replications)
    work = np.empty(m * min(2 * _DRAW_SLICE - 1, replications))
    done = 0
    while done < replications:
        take = min(_DRAW_CHUNK, replications - done)
        coeff = rng.standard_normal((r, take))
        # slices start every S columns; the last one runs to the chunk's end,
        # so only a chunk narrower than S gives a slice narrower than S
        starts = range(0, max(take - _DRAW_SLICE, 0) + 1, _DRAW_SLICE)
        for lo, hi in zip(starts, [*starts[1:], take]):
            z = work[: m * (hi - lo)].reshape(m, hi - lo)
            np.matmul(transfer, coeff[:, lo:hi], out=z)
            np.max(np.multiply(z, z, out=z), axis=0, out=out[done + lo : done + hi])
        done += take
    return out


def simulate_kernel_max(beta, d, m, replications, seed=0):
    """Maxima of the squared field over a cover of ``m`` directions, via the covariance route."""
    check_integer(replications, 1, "replications")
    cover = make_cover(d, m, stream(seed, NS_LIMIT, 0))
    sigma = ZonalKernel(beta, d).gram(cover)
    from scipy import linalg

    # the Gram matrix is exactly symmetric, so its transpose is a Fortran
    # view of the same values: dsyevd factors it as numpy's eigh would and
    # writes the eigenvectors over it without a copy.  A non-finite entry
    # makes LAPACK fail or return non-finite eigenvalues, caught below.
    eigvals, eigvecs = linalg.eigh(sigma.T, overwrite_a=True, check_finite=False,
                                   driver="evd")
    if not np.all(np.isfinite(eigvals)):
        raise NumericalError("eigendecomposition of the cover covariance failed")
    # the matrix is PSD up to rounding: clip, keep the numerically nonzero part
    clipped = np.clip(eigvals, 0.0, None)
    keep = clipped > clipped[-1] * 1e-12
    transfer = eigvecs[:, keep] * np.sqrt(clipped[keep])
    del sigma, eigvecs  # the m x m matrix is not needed by the draws
    rng = stream(seed, NS_LIMIT, 1)
    return _batched_max_square(transfer, replications, rng)


def simulate_harmonic_max(beta, d, m, replications, seed=0):
    """Maxima of the squared field over a cover of ``m`` directions, via its harmonics expansion.

    The field is sum_k sqrt(|S^{d-1}| lambda_k) sum_j xi_kj phi_kj over the
    orders k with a nonzero eigenvalue lambda_k, with iid standard normal xi.
    """
    check_integer(replications, 1, "replications")
    if d not in (2, 3):
        raise InputError("harmonic route implemented for d in {2, 3}; use the kernel route")
    if beta > MAX_HARMONIC_BETA:
        raise InputError(f"harmonic route implemented for beta <= {MAX_HARMONIC_BETA}")
    eigenvalues = ZonalKernel(beta, d).eigenvalues
    orders = [k for k, lam in enumerate(eigenvalues) if lam]
    cover = make_cover(d, m, stream(seed, NS_LIMIT, 0))
    phi = harmonic_basis(d, orders, cover)
    scale = np.array([math.sqrt(surface_area(d) * float(eigenvalues[k]))
                      for k in orders for _ in range(harmonic_dim(d, k))])
    transfer = phi * scale[None, :]
    rng = stream(seed, NS_LIMIT, 1)
    return _batched_max_square(transfer, replications, rng)


# ---------------------------------------------------------------------------
# quantiles


def quantile_stderr(values, alpha, seed=0):
    """Bootstrap standard error of an empirical quantile."""
    values = np.asarray(values)
    rng = stream(seed, NS_LIMIT, 2)
    n = values.shape[0]
    reps = np.empty(_BOOTSTRAP)
    for start in range(0, _BOOTSTRAP, _BOOTSTRAP_BLOCK):
        stop = min(start + _BOOTSTRAP_BLOCK, _BOOTSTRAP)
        # the same indices, in the same order, as stop - start draws of size n
        idx = rng.integers(0, n, size=(stop - start, n))
        reps[start:stop] = np.quantile(values[idx], alpha, axis=1)
    return float(reps.std(ddof=1))


def limit_quantile(beta, d, alpha, method, m, replications, seed=0):
    """Empirical alpha-quantile of ``replications`` simulated limit maxima on an ``m``-cover.

    Returns ``(value, mc_stderr, maxima)``: the quantile, its bootstrap
    standard error and the simulated maxima.  ``alpha`` is the quantile
    level, 0 and 1 included: a test at a level below about 1.1e-16 asks for
    the level 1.0, because 1.0 - level rounds to 1.0.
    """
    if not 0.0 <= alpha <= 1.0:
        raise InputError(f"quantile level must lie in [0, 1], got {alpha}")
    if method == "kernel":
        maxima = simulate_kernel_max(beta, d, m, replications, seed=seed)
    elif method == "harmonic":
        maxima = simulate_harmonic_max(beta, d, m, replications, seed=seed)
    else:
        raise InputError(f"unknown method {method!r}; expected 'kernel' or 'harmonic'")
    value = float(np.quantile(maxima, alpha))
    return value, quantile_stderr(maxima, alpha, seed=seed), maxima
