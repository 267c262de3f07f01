"""Full-size reproductions of the published simulation tables.

These run for hours and are excluded from the default suite; opt in with

    pytest -m extended tests/test_extended_tables.py

The gating desk-scale subset lives in test_acceptance.py.
"""

import math

import numpy as np
import pytest

from conftest import SEED_NULL, SEED_POWER, WORKERS
from maxproj.harness import (
    RunConfig,
    critical_value,
    default_limit_cover_m,
    rejection_rates,
    run_replications,
    simulate_null,
)
from maxproj.limits import quantile_stderr, simulate_kernel_max
from maxproj.rng import NS_POWER
from maxproj.samplers import preset
from reference_tables import POWER_COLUMNS, POWER_ROWS, POWER_TABLE, TABLE1

pytestmark = pytest.mark.extended

BETAS = (1, 2, 3, 4, 5, 6)


def _power_tolerance(percent, reps=5000):
    q = min(max(percent / 100.0, 0.005), 0.995)
    return 0.01 + 3.0 * math.sqrt(2.0) * math.sqrt(q * (1.0 - q) / reps)


@pytest.mark.parametrize("d", (2, 3, 5, 10))
def test_full_critical_value_table(d):
    cfg = RunConfig(d=d, betas=BETAS, null_replications=20_000, seed=SEED_NULL, workers=WORKERS)
    for n, targets in TABLE1[d].items():
        if isinstance(n, str):
            continue
        nulls = simulate_null(cfg, n, competitors=False)
        for beta, target in zip(BETAS, targets):
            values = nulls[f"T{beta}"]
            q = float(np.quantile(values, 0.95))
            tol = 3.0 * math.sqrt(2.0) * quantile_stderr(values, 0.95)
            assert abs(q - target) <= tol, f"d={d} n={n} beta={beta}: {q:.3f} vs {target}"


@pytest.mark.parametrize("d", (2, 3, 5, 10))
def test_limit_rows(d):
    # published limit approximations carry their own Monte Carlo error and
    # cover-resolution bias that grows with d; widen the band accordingly
    targets = TABLE1[d]["inf"]
    band = 0.05 if d <= 3 else 0.12
    # the study's limit-field sizes
    m, reps = default_limit_cover_m(d), 100_000 if d <= 3 else 10_000
    maxima = simulate_kernel_max(1, d, m, reps, seed=SEED_NULL)
    q = float(np.quantile(maxima, 0.95))
    assert abs(q - targets[0]) <= band
    for beta, target in zip(BETAS[1:], targets[1:]):
        maxima = simulate_kernel_max(beta, d, m, reps, seed=SEED_NULL)
        q = float(np.quantile(maxima, 0.95))
        assert abs(q - target) <= band, f"d={d} beta={beta}: {q:.3f} vs {target}"


@pytest.mark.parametrize("d", (2, 3, 5, 10))
def test_full_power_table(d):
    cfg = RunConfig(d=d, betas=BETAS, null_replications=20_000, seed=SEED_NULL, workers=WORKERS)
    nulls = simulate_null(cfg, 100, competitors=True)
    critvals = {name: critical_value(v, 0.05, name) for name, v in nulls.items()}
    columns = POWER_COLUMNS[d]
    failures = []
    for idx, ((name, params), printed_row) in enumerate(zip(POWER_ROWS, POWER_TABLE[d])):
        task = {
            "d": d,
            "n": 100,
            "betas": BETAS,
            "m": cfg.m,
            "seed": SEED_POWER,
            "ns": (NS_POWER, d, idx),
            "alt": preset(name, d, **params),
            "competitors": True,
        }
        stats = run_replications(task, 5000, WORKERS)
        rates = rejection_rates(stats, critvals)
        for col, printed in zip(columns, printed_row):
            got = rates[col]
            if abs(got - printed / 100.0) > _power_tolerance(printed):
                failures.append(f"{name}{params} {col}: {got:.3f} vs {printed}%")
    assert not failures, "; ".join(failures)
