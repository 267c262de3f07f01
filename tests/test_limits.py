import concurrent.futures
import math
import os
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from conftest import SINGLE_THREAD, run_python
from maxproj import InputError, NumericalError, limits
from maxproj.cli import main
from maxproj.geometry import surface_area, uniform_points
from maxproj.kernels import ZonalKernel
from maxproj.legendre import harmonic_dim, legendre_eval
from maxproj.limits import (
    harmonic_basis,
    limit_quantile,
    quantile_stderr,
    simulate_harmonic_max,
    simulate_kernel_max,
)
from maxproj.rng import NS_LIMIT, stream
from oracles import sphere_quadrature


def test_cover_covariance_diagonal_is_total_variance():
    kern = ZonalKernel(4, 3)
    pts = uniform_points(3, 50, stream(61))
    sigma = kern.gram(pts)
    np.testing.assert_allclose(np.diag(sigma), float(kern.total_variance), atol=1e-12)


@pytest.mark.parametrize("d", (2, 3, 5, 10))
def test_gram_is_exactly_symmetric_in_any_layout(d):
    # the kernel route hands the Gram's transpose to LAPACK as the same matrix
    pts = uniform_points(d, 300, stream(60, d))
    layouts = (np.asfortranarray(pts), np.repeat(pts, 2, axis=1)[:, ::2],
               np.repeat(pts, 2, axis=0)[::2], pts.tolist())
    for beta in range(1, 7):
        kern = ZonalKernel(beta, d)
        g = kern.gram(pts)
        assert np.array_equal(g, g.T)
        for points in layouts:
            assert np.array_equal(kern.gram(points), g)


def test_eigen_clipping_perturbation_is_rounding_noise():
    kern = ZonalKernel(3, 3)
    pts = uniform_points(3, 300, stream(62))
    sigma = kern.gram(pts)
    vals, vecs = np.linalg.eigh(sigma)
    recon = (vecs * np.clip(vals, 0.0, None)) @ vecs.T
    assert np.max(np.abs(sigma - recon)) <= 1e-8


def test_kernel_route_rank_matches_active_harmonics():
    # field of order beta has rank sum nu_d(k) over active orders
    kern = ZonalKernel(3, 3)
    pts = uniform_points(3, 200, stream(63))
    vals = np.linalg.eigvalsh(kern.gram(pts))
    rank = int(np.sum(vals > vals[-1] * 1e-10))
    assert rank == 3 + 7  # nu_3(1) + nu_3(3)


@pytest.mark.parametrize("d", (2, 3))
def test_harmonic_basis_orthonormal_and_addition(d):
    orders = range(7)
    pts, w = sphere_quadrature(d)
    phi = harmonic_basis(d, orders, pts)
    gram = (phi * w[:, None]).T @ phi
    np.testing.assert_allclose(gram, np.eye(phi.shape[1]), atol=1e-8)
    # addition identity per order on random pairs
    u = uniform_points(d, 6, stream(64, d, 0))
    v = uniform_points(d, 6, stream(64, d, 1))
    pu, pv = harmonic_basis(d, orders, u), harmonic_basis(d, orders, v)
    orders = np.repeat(orders, [harmonic_dim(d, k) for k in orders])
    for k in range(7):
        cols = orders == k
        lhs = (pu[:, cols] * pv[:, cols]).sum(axis=1)
        rhs = harmonic_dim(d, k) / surface_area(d) * legendre_eval(
            d, k, np.clip((u * v).sum(axis=1), -1, 1)
        )
        np.testing.assert_allclose(lhs, rhs, atol=1e-8)


def test_field_basis_orders_follow_parity():
    # the field's active orders, those of the nonzero eigenvalues, share beta's parity
    for beta, d, active in ((5, 2, [1, 3, 5]), (4, 3, [2, 4]), (6, 3, [2, 4, 6])):
        assert [k for k, lam in enumerate(ZonalKernel(beta, d).eigenvalues) if lam] == active
    assert harmonic_basis(2, (1, 3, 5), np.eye(2)).shape == (2, 6)
    with pytest.raises(InputError):
        simulate_harmonic_max(7, 2, m=10, replications=10)
    with pytest.raises(InputError):
        harmonic_basis(5, (1,), np.eye(5))


def test_harmonic_field_variance_matches_kernel_diagonal():
    # empirical Var Z(b) at fixed points vs rho(1) = sum lambda nu
    beta, d, reps = 2, 3, 20_000
    kern = ZonalKernel(beta, d)
    orders = (2,)
    pts = uniform_points(d, 5, stream(65))
    phi = harmonic_basis(d, orders, pts)
    scale = np.array([math.sqrt(surface_area(d) * float(kern.eigenvalues[k]))
                      for k in orders for _ in range(harmonic_dim(d, k))])
    coeff = stream(66).standard_normal((phi.shape[1], reps))
    z = (phi * scale) @ coeff
    var = z.var(axis=1, ddof=1)
    target = float(kern.total_variance)
    se = target * math.sqrt(2.0 / (reps - 1))
    assert np.all(np.abs(var - target) <= 3.0 * se)


def test_beta1_limit_is_chi_square():
    # d * max Z^2 is exactly chi^2_d in the limit; KS at 20000 replications
    for d in (2, 3):
        maxima = simulate_kernel_max(1, d, m=1000, replications=20_000, seed=67)
        ks = stats.kstest(d * maxima, stats.chi2(df=d).cdf)
        assert ks.statistic <= 0.012


def test_methods_agree_medium_scale():
    k = simulate_kernel_max(2, 2, m=1000, replications=30_000, seed=68)
    h = simulate_harmonic_max(2, 2, m=1000, replications=30_000, seed=69)
    qk, qh = np.quantile(k, 0.95), np.quantile(h, 0.95)
    se = math.hypot(quantile_stderr(k, 0.95), quantile_stderr(h, 0.95))
    assert abs(qk - qh) <= 2.0 * se
    assert qh == pytest.approx(0.753, abs=0.02)


def _loop_quantile_stderr(values, alpha, seed=0):
    """One resample and one quantile call at a time: the reference of quantile_stderr."""
    rng = stream(seed, NS_LIMIT, 2)
    n = values.shape[0]
    reps = [np.quantile(values[rng.integers(0, n, size=n)], alpha) for _ in range(200)]
    return float(np.std(reps, ddof=1))


@pytest.mark.parametrize("n", [1, 2, 7, 1000])
@pytest.mark.parametrize("alpha", [0.0, 0.05, 0.5, 0.95, 0.999, 1.0])
def test_quantile_stderr_matches_the_one_resample_loop(n, alpha):
    values = stream(71, n).standard_normal(n)
    values[::3] = values[0]  # ties
    for seed in (0, 5):
        assert quantile_stderr(values, alpha, seed) == _loop_quantile_stderr(values, alpha, seed)


@pytest.mark.parametrize("values, alpha, message", [
    ([], 0.5, r"non-empty 1-D array, got shape \(0,\)"),
    (np.ones((10, 2)), 0.5, r"non-empty 1-D array, got shape \(10, 2\)"),
    (np.arange(10.0), 1.5, r"quantile level must lie in \[0, 1\], got 1.5"),
], ids=["empty", "2-D", "level"])
def test_quantile_stderr_rejects_bad_input(values, alpha, message):
    with pytest.raises(InputError, match=message):
        quantile_stderr(values, alpha)


class _ThreadCounter:
    """Stands in for ThreadPoolExecutor: records its size and runs each call at once."""

    def __init__(self, started, max_workers):
        started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.shutdown()

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future

    def shutdown(self, wait=True):
        pass


@pytest.mark.parametrize("cpus", (1, 3))
def test_limit_threads_are_capped_at_the_usable_cpus(monkeypatch, capsys, cpus):
    started = []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor",
                        lambda max_workers: _ThreadCounter(started, max_workers))
    argv = ["--d", "3", "--beta", "3", "--cover-m", "200", "--reps", "9000", "--seed", "2"]
    outputs = []
    for command in (["limit", "--method", "kernel"], ["limit", "--method", "harmonic"],
                    ["critvals", "--n", "inf", "inf*"]):
        for workers in ("1", "100000"):
            assert main([*command, *argv, "--workers", workers]) == 0
            outputs.append(capsys.readouterr().out)
    assert outputs[0::2] == outputs[1::2]
    # one draw pool per limit simulation (limit on each route, then the inf
    # and inf* rows), at most one thread per CPU; one CPU starts no thread
    assert started == ([] if cpus == 1 else [3, 3] * 2)


def test_limit_quantile_monotone_and_bounded():
    q50, _, _ = limit_quantile(2, 3, 0.5, "kernel", m=400, replications=20_000, seed=70)
    q95, stderr95, maxima = limit_quantile(2, 3, 0.95, "kernel", m=400, replications=20_000,
                                           seed=70)
    assert 0.0 < q50 < q95
    # chi-square upper envelope for beta = 2: 2(d-1)/(d^2 (d+2)) chi2_{nu_d(2)}
    d = 3
    bound = 2 * (d - 1) / (d * d * (d + 2)) * stats.chi2(df=5).ppf(0.95)
    assert q95 <= bound
    assert stderr95 > 0
    assert maxima.shape == (20_000,)


def test_simulation_is_reproducible():
    a = simulate_kernel_max(3, 2, m=200, replications=500, seed=71)
    b = simulate_kernel_max(3, 2, m=200, replications=500, seed=71)
    assert np.array_equal(a, b)
    c = simulate_harmonic_max(3, 2, m=200, replications=500, seed=71)
    d = simulate_harmonic_max(3, 2, m=200, replications=500, seed=71)
    assert np.array_equal(c, d)


def test_harmonic_route_rejects_high_dimension():
    with pytest.raises(InputError):
        simulate_harmonic_max(2, 5, m=100, replications=10, seed=1)


def test_limit_quantile_input_validation():
    with pytest.raises(InputError):
        limit_quantile(1, 2, 1.2, "kernel", m=50, replications=10)
    with pytest.raises(InputError):
        limit_quantile(1, 2, 0.95, "nope", m=50, replications=10)
    top, _, maxima = limit_quantile(1, 2, 1.0, "kernel", m=50, replications=10)
    assert top == maxima.max()


@pytest.mark.parametrize("method", ["kernel", "harmonic"])
def test_both_routes_reject_a_cover_smaller_than_d(method):
    simulate = simulate_kernel_max if method == "kernel" else simulate_harmonic_max
    for m in (1, 2):
        with pytest.raises(InputError, match=f"cover size {m} must be at least d = 3"):
            simulate(3, 3, m=m, replications=10, seed=1)
        with pytest.raises(InputError, match=f"cover size {m} must be at least d = 3"):
            limit_quantile(3, 3, 0.95, method, m=m, replications=10)
    assert simulate(3, 3, m=3, replications=10, seed=1).shape == (10,)


#: replication counts around the slice width 256 and the chunk width 4096
DRAW_COUNTS = (1, 2, 3, 255, 256, 257, 511, 4095, 4096, 4097, 4096 + 257, 2 * 4096 + 1)


def test_sliced_draws_equal_one_product_per_chunk_bit_for_bit():
    # Under single-threaded BLAS each slice gives the bits of the chunk's one
    # product, whichever thread computes it; multithreaded OpenBLAS splits the
    # two products differently.  The transfers are those of the two routes,
    # caught on their way in.
    script = textwrap.dedent(f"""
        import sys
        import numpy as np
        sys.path.insert(0, {str(Path(__file__).parent)!r})
        from oracles import batched_max_square_oneshot
        from maxproj import limits

        transfers = []
        draw = limits._batched_max_square
        limits._batched_max_square = (
            lambda t, r, rng, workers: transfers.append(t) or draw(t, r, rng, workers))
        limits.simulate_kernel_max(6, 5, 1000, 1, seed=3)
        limits.simulate_harmonic_max(6, 3, 500, 1, seed=3)
        for transfer in transfers:
            for count in {DRAW_COUNTS!r}:
                oneshot = batched_max_square_oneshot(transfer, count, np.random.default_rng(count))
                for workers in (1, 2, 3, 4):
                    sliced = draw(transfer, count, np.random.default_rng(count), workers)
                    assert np.array_equal(sliced, oneshot), (transfer.shape, count, workers)
        print([t.shape for t in transfers])
    """)
    proc = run_python("-c", script, env=SINGLE_THREAD)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[(1000, 209), (500, 27)]"


def test_draws_hold_one_coefficient_chunk_and_one_slice_buffer():
    # two m x 4096 products alive at once would hold about 131 MB here;
    # each thread has a slice buffer of its own
    m, r, count = 2000, 209, 8192
    transfer = np.random.default_rng(5).standard_normal((m, r))
    for workers in (1, 2):
        tracemalloc.start()
        try:
            limits._batched_max_square(transfer, count, np.random.default_rng(6), workers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = (2 * r * limits._DRAW_CHUNK + workers * m * (2 * limits._DRAW_SLICE - 1)
                 + count) * 8 + 2**20
        assert peak <= bound, workers


def test_kernel_route_equals_numpy_eigh_bit_for_bit():
    # numpy and scipy bundle their own OpenBLAS builds; under single-threaded
    # BLAS both run the same dsyevd on the same values
    script = textwrap.dedent(f"""
        import sys
        import numpy as np
        sys.path.insert(0, {str(Path(__file__).parent)!r})
        from oracles import kernel_max_numpy_eigh
        from maxproj.limits import simulate_kernel_max

        for d in (2, 3, 5, 10):
            for beta in range(1, 7):
                for seed in (0, 9):
                    args = (beta, d, 120, 300)
                    new = simulate_kernel_max(*args, seed=seed)
                    old = kernel_max_numpy_eigh(*args, seed=seed)
                    assert np.array_equal(new, old), (d, beta, seed)
    """)
    proc = run_python("-c", script, env=SINGLE_THREAD)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.skipif(sys.platform != "linux", reason="reads ru_maxrss in KiB, as Linux gives it")
def test_kernel_route_factors_the_covariance_in_place():
    # the covariance and LAPACK's 2 m^2 workspace; numpy's eigh, with its copy
    # of the input and a separate output, held about 5 m^2 doubles
    m = 1500
    script = textwrap.dedent(f"""
        import resource
        import scipy.linalg
        from maxproj.limits import simulate_kernel_max

        simulate_kernel_max(6, 5, 20, 1, seed=3)
        base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        simulate_kernel_max(6, 5, {m}, 1, seed=3)
        print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - base)
    """)
    # Linux keeps a process's peak RSS across fork and exec, so a script started
    # from pytest would count pytest's peak as its baseline: a small launcher
    # starts it instead
    launch = "import subprocess, sys; raise SystemExit(subprocess.call(sys.argv[1:]))"
    proc = run_python("-c", launch, sys.executable, "-c", script, env=SINGLE_THREAD)
    assert proc.returncode == 0, proc.stderr
    grown = int(proc.stdout) * 1024  # ru_maxrss is in KiB on Linux
    assert grown <= 3.5 * m * m * 8


@pytest.mark.parametrize("m", (5, 50))
@pytest.mark.parametrize("entry", ("diagonal", "off-diagonal", "infinite"))
def test_a_non_finite_covariance_never_gives_a_quantile(monkeypatch, capsys, m, entry):
    # the factorization skips scipy's finiteness scan: LAPACK either fails or
    # returns non-finite eigenvalues, and both end in exit code 3
    gram = ZonalKernel.gram

    def broken(kernel, points):
        g = gram(kernel, points)
        i, j, bad = {"diagonal": (1, 1, math.nan), "off-diagonal": (3, 1, math.nan),
                     "infinite": (2, 0, math.inf)}[entry]
        g[i, j] = g[j, i] = bad
        return g

    monkeypatch.setattr(ZonalKernel, "gram", broken)
    with pytest.raises((NumericalError, np.linalg.LinAlgError)):
        simulate_kernel_max(3, 3, m=m, replications=10, seed=1)
    assert main(["limit", "--d", "3", "--beta", "3", "--cover-m", str(m), "--reps", "10"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("maxproj: numerical error: ")
