"""Gating acceptance checks.

One test per criterion; each runs at its stated tolerance and records a
pass/fail line that the terminal summary prints at the end of the run.
Simulation-based checks run on pinned seeds and are deterministic.
"""

import math

import numpy as np
import pytest
from scipy import integrate, special as sps, stats

from conftest import SEED_POWER, WORKERS
from maxproj.bahadur import are_table, gamma_shift, kl_divergence
from maxproj.geometry import make_cover, surface_area, uniform_points
from maxproj.harness import critical_value, rejection_rates, run_replications
from maxproj.kernels import ZonalKernel
from maxproj.legendre import harmonic_dim, legendre_eval, psi
from maxproj.limits import quantile_stderr, simulate_harmonic_max, simulate_kernel_max
from maxproj.rng import NS_POWER, stream
from maxproj.samplers import MixtureVMF, VonMisesFisher, preset, sample
from maxproj.statistics import max_projection_values, t1_closed, t2_closed
from oracles import shift_value, sphere_quadrature, vmf_mean_resultant
from test_kernels import eigenvalues_closed, rho_closed

pytestmark = pytest.mark.acceptance

DIMS = (2, 3, 5, 10)


def test_c01_kernel_closed_forms(acceptance):
    rng = np.random.default_rng(101)
    worst = 0.0
    for beta in range(1, 7):
        for d in DIMS:
            t = rng.uniform(-1.0, 1.0, 100)
            dev = np.abs(ZonalKernel(beta, d).rho(t) - rho_closed(beta, d, t))
            worst = max(worst, float(dev.max()))
    acceptance(1, worst <= 1e-10, f"kernel vs closed forms, max abs dev {worst:.2e}")


def test_c02_spectrum_closed_lists(acceptance):
    worst_eig = 0.0
    worst_trace = 0.0
    for beta in range(1, 7):
        for d in DIMS:
            kern = ZonalKernel(beta, d)
            closed = eigenvalues_closed(beta, d)
            for k in range(beta + 1):
                dev = abs(float(kern.eigenvalues[k]) - closed.get(k, 0.0))
                worst_eig = max(worst_eig, dev)
            worst_trace = max(
                worst_trace, abs(kern.rho(1.0) - float(kern.total_variance))
            )
    ok = worst_eig <= 1e-14 and worst_trace <= 1e-12
    acceptance(2, ok, f"eigenvalues dev {worst_eig:.2e}, trace identity dev {worst_trace:.2e}")


def test_c03_cover_matches_closed_forms(acceptance):
    lows = []
    for d in (2, 3):
        for rep in range(50):
            x = uniform_points(d, 50, stream(103, d, rep))
            cover = make_cover(d, 5000, seed=1000 + rep)
            vals = max_projection_values(x, (1, 2), cover)
            for beta, closed in ((1, t1_closed(x)), (2, t2_closed(x))):
                ratio = vals[beta] / closed
                assert ratio <= 1.0 + 1e-12
                lows.append(ratio)
    low = min(lows)
    acceptance(3, low >= 0.99, f"cover/closed ratio in [{low:.4f}, 1.0] over 100 samples")


def test_c04_limit_law_chi_square(acceptance):
    targets = {2: 2.996, 3: 2.605}
    details = []
    ok = True
    for d in (2, 3):
        maxima = simulate_kernel_max(1, d, m=1000, replications=100_000, seed=104)
        ks = stats.kstest(d * maxima, stats.chi2(df=d).cdf).statistic
        q = float(np.quantile(maxima, 0.95))
        ok = ok and ks <= 0.01 and abs(q - targets[d]) <= 0.05
        details.append(f"d={d}: KS {ks:.4f}, q95 {q:.3f} (target {targets[d]})")
    acceptance(4, ok, "; ".join(details))


def test_c05_method_agreement(acceptance, table1_d2):
    kernel_anchor = table1_d2["inf"]
    harmonic_anchor = table1_d2["inf*"]
    ok = True
    details = []
    for beta in range(1, 7):
        k = simulate_kernel_max(beta, 2, m=1000, replications=100_000, seed=105)
        h = simulate_harmonic_max(beta, 2, m=1000, replications=100_000, seed=205)
        qk, qh = float(np.quantile(k, 0.95)), float(np.quantile(h, 0.95))
        se = math.hypot(quantile_stderr(k, 0.95), quantile_stderr(h, 0.95))
        agree = abs(qk - qh) <= 2.0 * se
        anchors = (kernel_anchor[beta - 1], harmonic_anchor[beta - 1])
        near_k = min(abs(qk - a) for a in anchors) <= 0.05
        near_h = min(abs(qh - a) for a in anchors) <= 0.05
        ok = ok and agree and near_k and near_h
        details.append(f"b{beta}: {qk:.3f}/{qh:.3f} (2se {2*se:.3f})")
    acceptance(5, ok, "kernel/harmonic q95 " + "; ".join(details))


def test_c06_finite_n_critical_values(acceptance, nulls_d2_n20, nulls_d2_n100, table1_d2):
    ok = True
    details = []
    for n, nulls in ((20, nulls_d2_n20), (100, nulls_d2_n100)):
        for beta in range(1, 7):
            values = nulls[f"T{beta}"]
            q = float(np.quantile(values, 0.95))
            se = quantile_stderr(values, 0.95)
            tol = 3.0 * math.sqrt(2.0) * se
            target = table1_d2[n][beta - 1]
            good = abs(q - target) <= tol
            ok = ok and good
            if not good or beta in (1, 6):
                details.append(f"n={n} b{beta}: {q:.3f} vs {target} (tol {tol:.3f})")
    acceptance(6, ok, "; ".join(details))


def test_c07_efficiency_table(acceptance):
    printed = {
        ("vMF", 1): (1.00, 1.00, 1.00, 1.00),
        ("vMF", 3): (0.90, 0.84, 0.77, 0.70),
        ("vMF", 5): (0.79, 0.67, 0.54, 0.41),
        ("LP1", 1): (1.00, 1.00, 1.00, 1.00),
        ("LP1", 3): (0.90, 0.84, 0.77, 0.70),
        ("LP1", 5): (0.79, 0.67, 0.54, 0.41),
        ("W", 2): (1.00, 1.00, 1.00, 1.00),
        ("W", 4): (0.94, 0.92, 0.89, 0.84),
        ("W", 6): (0.86, 0.80, 0.72, 0.61),
        ("LP2", 2): (1.00, 1.00, 1.00, 1.00),
        ("LP2", 4): (0.94, 0.92, 0.89, 0.84),
        ("LP2", 6): (0.86, 0.80, 0.72, 0.61),
        ("LP3", 3): (0.10, 0.16, 0.23, 0.30),
        ("LP3", 5): (0.20, 0.31, 0.43, 0.54),
        ("LP4", 4): (0.06, 0.08, 0.11, 0.16),
        ("LP4", 6): (0.14, 0.19, 0.27, 0.37),
        ("LP5", 5): (0.01, 0.02, 0.03, 0.06),
        ("LP6", 6): (0.004, 0.01, 0.01, 0.02),
    }
    rows = {(r["alternative"], r["beta"]): r for r in are_table()}
    assert set(rows) == set(printed)
    bad = []
    for key, expected in printed.items():
        for d, target in zip(DIMS, expected):
            got = rows[key][f"d={d}"]
            decimals = 3 if target == 0.004 else 2
            if round(got, decimals) != target:
                bad.append((key, d, got, target))
    acceptance(7, not bad, f"all {len(printed) * 4} table entries reproduced" if not bad else f"mismatches: {bad}")


def test_c08_slope_limits(acceptance):
    cases = (
        [("vmf", beta, None, 1) for beta in (1, 3, 5)]
        + [("watson", beta, None, 2) for beta in (2, 4, 6)]
        + [("lp", beta, m, m) for beta, m in ((1, 1), (2, 2), (3, 3), (3, 1), (4, 2))]
    )
    worst = 0.0
    for d in (2, 3):
        for alt, beta, m, k in cases:
            target = float(
                ZonalKernel(beta, d).eigenvalues[k] * harmonic_dim(d, k)
            )
            k1, k2 = 1e-2, 1e-3
            r1 = gamma_shift(alt, beta, d, k1, m=m) / (2.0 * kl_divergence(alt, d, k1, m=m))
            r2 = gamma_shift(alt, beta, d, k2, m=m) / (2.0 * kl_divergence(alt, d, k2, m=m))
            rich = (r2 * k1**2 - r1 * k2**2) / (k1**2 - k2**2)
            worst = max(worst, abs(rich - target) / target)
    acceptance(8, worst <= 0.01, f"worst relative deviation {worst:.2e} over {2 * len(cases)} limits")


def _power_rates(spec, idx, critvals, reps=1000, n=100, d=2):
    task = {
        "d": d,
        "n": n,
        "betas": (1, 2, 3, 4, 5, 6),
        "m": 5000,
        "seed": SEED_POWER,
        "ns": (NS_POWER, idx),
        "alt": spec,
        "competitors": True,
    }
    values = run_replications(task, reps, WORKERS)
    return rejection_rates(values, critvals)


def test_c09_power_smoke(acceptance, nulls_d2_n100):
    critvals = {name: critical_value(v, 0.05, name) for name, v in nulls_d2_n100.items()}
    uniform = _power_rates(preset("uniform", 2), 0, critvals)
    vmf = _power_rates(preset("vmf1", 2, kappa=1.0), 1, critvals)
    bing = _power_rates(preset("bing1", 2, kappa=1.0), 2, critvals)
    lp3 = _power_rates(preset("lp", 2, m=3, kappa=1.0), 3, critvals)
    checks = {
        "uniform level": all(0.035 <= r <= 0.065 for r in uniform.values()),
        "vmf T1": vmf["T1"] >= 0.98,
        "bing T2": 0.83 <= bing["T2"] <= 0.93,
        "lp3 T5": lp3["T5"] >= 0.98,
        "lp3 T1 blind": 0.02 <= lp3["T1"] <= 0.08,
        "lp3 T2 blind": 0.03 <= lp3["T2"] <= 0.08,
    }
    detail = (
        f"uniform [{min(uniform.values()):.3f},{max(uniform.values()):.3f}], "
        f"vmf1(1) T1={vmf['T1']:.3f}, bing1(1) T2={bing['T2']:.3f}, "
        f"lp3(1) T5={lp3['T5']:.3f} T1={lp3['T1']:.3f} T2={lp3['T2']:.3f}"
    )
    failed = [k for k, v in checks.items() if not v]
    acceptance(9, not failed, detail + (f"; failed: {failed}" if failed else ""))


def test_c10_shift_quadrature(acceptance):
    worst_val = 0.0
    worst_zero = 0.0
    for beta, m, d in ((3, 1, 3), (3, 3, 3), (4, 2, 2)):
        theta = np.eye(d)[0]
        pts, w = sphere_quadrature(d)
        psi_b = psi(d, beta)
        for r in range(8):
            b = uniform_points(d, 1, stream(110, beta, m, r))[0]
            profile = (pts @ b) ** beta - psi_b
            lhs = float(np.sum(w * profile * legendre_eval(d, m, np.clip(pts @ theta, -1, 1))))
            lhs /= surface_area(d)
            rhs = shift_value(beta, d, m, theta, b)
            worst_val = max(worst_val, abs(lhs - rhs))
    for beta, m, d in ((3, 2, 3), (2, 3, 2), (4, 1, 2)):
        theta = np.eye(d)[0]
        pts, w = sphere_quadrature(d)
        b = uniform_points(d, 1, stream(111, beta, m))[0]
        profile = (pts @ b) ** beta - psi(d, beta)
        lhs = float(np.sum(w * profile * legendre_eval(d, m, np.clip(pts @ theta, -1, 1))))
        worst_zero = max(worst_zero, abs(lhs / surface_area(d)))
    ok = worst_val <= 1e-6 and worst_zero <= 1e-10
    acceptance(10, ok, f"shift dev {worst_val:.2e}, vanishing cases {worst_zero:.2e}")


# --- criterion 11: sampler validation -----------------------------------------


def _chi2_projection_pvalue(draws, density_fn, bins=200):
    """Goodness of fit of projected cosines against an analytic density."""
    edges = np.linspace(-1.0, 1.0, bins + 1)
    observed = np.histogram(draws, bins=edges)[0].astype(float)
    expected = np.empty(bins)
    for i in range(bins):
        val, _ = integrate.quad(density_fn, edges[i], edges[i + 1], limit=100)
        expected[i] = val * draws.shape[0]
    # merge sparse bins so the chi-square approximation holds
    obs_m, exp_m = [], []
    o_acc = e_acc = 0.0
    for o, e in zip(observed, expected):
        o_acc += o
        e_acc += e
        if e_acc >= 10.0:
            obs_m.append(o_acc)
            exp_m.append(e_acc)
            o_acc = e_acc = 0.0
    if e_acc > 0:
        obs_m[-1] += o_acc
        exp_m[-1] += e_acc
    obs_m, exp_m = np.array(obs_m), np.array(exp_m)
    exp_m *= obs_m.sum() / exp_m.sum()
    chi2 = float(np.sum((obs_m - exp_m) ** 2 / exp_m))
    return float(stats.chi2(df=obs_m.shape[0] - 1).sf(chi2))


def test_c11_sampler_fidelity(acceptance):
    n = 1_000_000
    d = 3
    e1 = np.eye(d)[0]
    e3 = np.eye(d)[2]

    def vmf_density(kappa):
        return lambda t: kappa * math.exp(kappa * t) / (2.0 * math.sinh(kappa))

    def watson_density(kappa):
        norm = integrate.quad(lambda s: math.exp(kappa * s * s), -1, 1)[0]
        return lambda t: math.exp(kappa * t * t) / norm

    def profile_density(m, kappa):
        return lambda t: (1.0 + kappa * float(legendre_eval(d, m, t))) / 2.0

    def mix_density(p, k1, k2):
        f1, f2 = vmf_density(k1), vmf_density(k2)
        return lambda t: p * f1(-t) + (1.0 - p) * f2(t)

    def bingham_density(a):
        def unnorm(t):
            r2 = 1.0 - t * t
            mean = 0.5 * (a[0] + a[1]) * r2
            half = 0.5 * (a[0] - a[1]) * r2
            return math.exp(a[2] * t * t + mean + abs(half)) * sps.i0e(half)

        norm = integrate.quad(unnorm, -1, 1)[0]
        return lambda t: unnorm(t) / norm

    a_diag = (0.5, 1.0, 1.5)
    cases = {
        "vmf": (preset("vmf1", d, kappa=1.0), e1, vmf_density(1.0)),
        "watson": (preset("uniform", d), e1, None),  # placeholder, replaced below
        "bingham": (preset("bing1", d, kappa=0.5), e3, bingham_density(a_diag)),
        "mixvmf": (MixtureVMF((0.35, 1.0 - 0.35), (VonMisesFisher(-e1, 1.0), VonMisesFisher(e1, 4.0))),
                   e1, mix_density(0.35, 1.0, 4.0)),
        "lp": (preset("lp", d, m=3, kappa=1.0), e1, profile_density(3, 1.0)),
    }
    from maxproj.samplers import Watson

    cases["watson"] = (Watson(e1, 2.0), e1, watson_density(2.0))
    pvals = {}
    for idx, (name, (spec, axis, dens)) in enumerate(cases.items()):
        x = sample(spec, n, stream(1100, idx))
        t = np.clip(x @ axis, -1.0, 1.0)
        pvals[name] = _chi2_projection_pvalue(t, dens)
    gof_ok = all(p > 0.001 for p in pvals.values())

    resultant_ok = True
    worst_sigma = 0.0
    for d2 in (2, 3, 5):
        theta = np.eye(d2)[0]
        for kappa in (0.5, 1.0, 2.0):
            x = sample(preset("vmf1", d2, kappa=kappa), 100_000, stream(1101, d2, int(kappa * 2)))
            t = x @ theta
            se = t.std(ddof=1) / math.sqrt(x.shape[0])
            sig = abs(t.mean() - vmf_mean_resultant(d2, kappa)) / se
            worst_sigma = max(worst_sigma, sig)
            resultant_ok = resultant_ok and sig <= 4.0
    detail = (
        "projection GOF p-values "
        + ", ".join(f"{k}={v:.3f}" for k, v in pvals.items())
        + f"; resultant worst |z| = {worst_sigma:.2f}"
    )
    acceptance(11, gof_ok and resultant_ok, detail)


def test_c12_byte_identical_output_across_workers(acceptance, tmp_path, capsys):
    from maxproj.cli import main

    common = [
        "critvals",
        "--d", "2",
        "--n", "50",
        "--beta", "1", "2", "3", "4", "5", "6",
        "--reps", "500",
        "--cover-m", "1000",
        "--seed", "12",
    ]
    f1, f2 = tmp_path / "w1.csv", tmp_path / "w8.csv"
    assert main(common + ["--workers", "1", "--out", str(f1)]) == 0
    assert main(common + ["--workers", "8", "--out", str(f2)]) == 0
    capsys.readouterr()
    same = f1.read_bytes() == f2.read_bytes()
    detail = [f"critvals CSV identical for workers 1 vs 8 ({f1.stat().st_size} bytes)"]

    rng = np.random.default_rng(12)
    catalogue = tmp_path / "catalogue.csv"
    rows = [f"{math.degrees(math.asin(u)):.6f},{lon:.6f}"
            for u, lon in zip(rng.uniform(-1.0, 1.0, 80), rng.uniform(-180.0, 180.0, 80))]
    catalogue.write_text("lat,lon\n" + "\n".join(rows) + "\n")
    small = ["--n", "40", "--beta", "1", "3", "4", "--reps", "200", "--cover-m", "500",
             "--seed", "12"]
    for command in (
        ["test", "--d", "3", "--data", str(catalogue), *small],
        ["power", "--d", "3", *small, "--power-reps", "130", "--alt", "vmf:kappa=1"],
    ):
        g1, g2 = tmp_path / f"{command[0]}_w1.csv", tmp_path / f"{command[0]}_w2.csv"
        assert main(command + ["--workers", "1", "--out", str(g1)]) == 0
        assert main(command + ["--workers", "2", "--out", str(g2)]) == 0
        capsys.readouterr()
        same = same and g1.read_bytes() == g2.read_bytes()
        detail.append(f"{command[0]} CSV identical for workers 1 vs 2 ({g1.stat().st_size} bytes)")
    acceptance(12, same, "; ".join(detail))
