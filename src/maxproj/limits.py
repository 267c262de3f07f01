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

``workers`` bounds the threads of the field draws, the only threaded work here,
capped at the CPUs the process may run on; one worker starts no thread.  The
calling thread draws every random number, in the same order for any
``workers``, and the threads compute the same products on the same operands,
so the output bits do not depend on the thread count.  The draws hold two
coefficient chunks and one m x (2 * _DRAW_SLICE - 1) slice buffer per thread.
"""

import math
from collections import deque

import numpy as np

from ._errors import InputError, NumericalError, check_integer, usable_workers
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


def _thread_map(fn, items, workers):
    """``[fn(item) for item in items]`` with up to ``workers`` calls at once on threads.

    The calling thread takes the items in order, so a generator that draws
    them from a stream draws the same values for any ``workers``; it takes
    the next item while the calls before it run.  Call i waits to start until
    call i - ``workers`` has returned.  With one worker no thread starts.
    """
    if workers == 1:
        return [fn(item) for item in items]
    from concurrent.futures import ThreadPoolExecutor

    results, pending = [], deque()
    with ThreadPoolExecutor(workers) as pool:
        for item in items:
            if len(pending) == workers:
                results.append(pending.popleft().result())
            pending.append(pool.submit(fn, item))
        results += [future.result() for future in pending]
    return results


def _slices(take):
    """``(lo, hi)`` column ranges of a chunk of ``take`` draws, one per matrix product."""
    # slices start every S columns; the last one runs to the chunk's end,
    # so only a chunk narrower than S gives a slice narrower than S
    starts = range(0, max(take - _DRAW_SLICE, 0) + 1, _DRAW_SLICE)
    return list(zip(starts, [*starts[1:], take]))


def _max_square(transfer, coeff, slices, work, out):
    """Column maxima of the squared ``transfer @ coeff[:, lo:hi]`` into ``out[lo:hi]``, per slice."""
    m = transfer.shape[0]
    for lo, hi in slices:
        z = work[: m * (hi - lo)].reshape(m, hi - lo)
        np.matmul(transfer, coeff[:, lo:hi], out=z)
        np.max(np.multiply(z, z, out=z), axis=0, out=out[lo:hi])


def _batched_max_square(transfer, replications, rng, workers=1):
    """Max of squared field values for N(0, I) coefficient draws.

    ``transfer`` has shape (m, r): field values = transfer @ coefficients.
    The coefficients are drawn ``_DRAW_CHUNK`` columns at a time; each chunk
    is multiplied, squared and maximized in slices of ``_DRAW_SLICE`` columns
    inside an m x (2 * _DRAW_SLICE - 1) buffer, the chunk's remainder riding
    in its last slice.  With ``workers`` > 1 the slices of each chunk are
    dealt to up to that many threads, one buffer each, while the calling
    thread draws the next chunk; every slice is the same product on the same
    operands, so the maxima do not depend on ``workers``.
    """
    m, r = transfer.shape
    out = np.empty(replications)
    # the first chunk has the most slices; every chunk but the last has
    # exactly ``threads`` tasks, so no more than two chunks are alive at once
    threads = min(workers, len(_slices(min(_DRAW_CHUNK, replications))))
    works = [np.empty(m * min(2 * _DRAW_SLICE - 1, replications)) for _ in range(threads)]

    def tasks():
        for done in range(0, replications, _DRAW_CHUNK):
            take = min(_DRAW_CHUNK, replications - done)
            coeff = rng.standard_normal((r, take))
            slices = _slices(take)
            # task i writes into works[i % threads], which task i - threads
            # has released before _thread_map starts task i
            for k, work in enumerate(works[: len(slices)]):
                yield coeff, slices[k::threads], work, out[done : done + take]

    _thread_map(lambda task: _max_square(transfer, *task), tasks(), threads)
    return out


def simulate_kernel_max(beta, d, m, replications, seed=0, workers=1):
    """Maxima of the squared field over a cover of ``m`` directions, via the covariance route.

    The field draws run on up to ``workers`` threads; the maxima do not
    depend on ``workers``.
    """
    check_integer(replications, 1, "replications")
    workers = usable_workers(workers)
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
    return _batched_max_square(transfer, replications, rng, workers)


def check_harmonic_route(d, betas):
    """Raise :class:`InputError` unless the harmonic route covers dimension ``d`` and all ``betas``."""
    if d not in (2, 3):
        raise InputError("harmonic route implemented for d in {2, 3}; use the kernel route")
    if max(betas) > MAX_HARMONIC_BETA:
        raise InputError(f"harmonic route implemented for beta <= {MAX_HARMONIC_BETA}")


def simulate_harmonic_max(beta, d, m, replications, seed=0, workers=1):
    """Maxima of the squared field over a cover of ``m`` directions, via its harmonics expansion.

    The field is sum_k sqrt(|S^{d-1}| lambda_k) sum_j xi_kj phi_kj over the
    orders k with a nonzero eigenvalue lambda_k, with iid standard normal xi.
    The field draws run on up to ``workers`` threads; the maxima do not
    depend on ``workers``.
    """
    check_integer(replications, 1, "replications")
    workers = usable_workers(workers)
    check_harmonic_route(d, (beta,))
    eigenvalues = ZonalKernel(beta, d).eigenvalues
    orders = [k for k, lam in enumerate(eigenvalues) if lam]
    cover = make_cover(d, m, stream(seed, NS_LIMIT, 0))
    phi = harmonic_basis(d, orders, cover)
    scale = np.array([math.sqrt(surface_area(d) * float(eigenvalues[k]))
                      for k in orders for _ in range(harmonic_dim(d, k))])
    transfer = phi * scale[None, :]
    rng = stream(seed, NS_LIMIT, 1)
    return _batched_max_square(transfer, replications, rng, workers)


# ---------------------------------------------------------------------------
# quantiles


def quantile_stderr(values, alpha, seed=0):
    """Bootstrap standard error of the ``alpha``-quantile of the non-empty 1-D ``values``."""
    values = np.asarray(values)
    if values.ndim != 1 or values.size == 0:
        raise InputError(f"values must be a non-empty 1-D array, got shape {values.shape}")
    if not 0.0 <= alpha <= 1.0:
        raise InputError(f"quantile level must lie in [0, 1], got {alpha}")
    rng = stream(seed, NS_LIMIT, 2)
    n = values.shape[0]
    reps = np.empty(_BOOTSTRAP)
    for start in range(0, _BOOTSTRAP, _BOOTSTRAP_BLOCK):
        stop = min(start + _BOOTSTRAP_BLOCK, _BOOTSTRAP)
        # the same indices, in the same order, as stop - start draws of size n
        idx = rng.integers(0, n, size=(stop - start, n))
        reps[start:stop] = np.quantile(values[idx], alpha, axis=1)
    return float(reps.std(ddof=1))


def limit_quantile(beta, d, alpha, method, m, replications, seed=0, workers=1):
    """Empirical alpha-quantile of ``replications`` simulated limit maxima on an ``m``-cover.

    Returns ``(value, mc_stderr, maxima)``: the quantile, its bootstrap
    standard error and the simulated maxima.  ``alpha`` is the quantile
    level, 0 and 1 included: a test at a level below about 1.1e-16 asks for
    the level 1.0, because 1.0 - level rounds to 1.0.  ``workers`` bounds
    the threads of the field draws; the result does not depend on it.
    """
    if not 0.0 <= alpha <= 1.0:
        raise InputError(f"quantile level must lie in [0, 1], got {alpha}")
    if method == "kernel":
        maxima = simulate_kernel_max(beta, d, m, replications, seed=seed, workers=workers)
    elif method == "harmonic":
        maxima = simulate_harmonic_max(beta, d, m, replications, seed=seed, workers=workers)
    else:
        raise InputError(f"unknown method {method!r}; expected 'kernel' or 'harmonic'")
    value = float(np.quantile(maxima, alpha))
    return value, quantile_stderr(maxima, alpha, seed=seed), maxima
