"""Shared fixtures and the acceptance-summary hook.

The expensive null simulations are session-scoped so the acceptance criteria
and the harness-level checks share them.  Monte Carlo assertions run on
pinned seeds: they are regression tests of a deterministic pipeline, not
statistical experiments.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import maxproj
from maxproj.harness import RunConfig, simulate_null

WORKERS = 2

SEED_NULL = 1001
SEED_SIZE = 2002
SEED_POWER = 3003

_ACCEPTANCE = {}


@pytest.fixture
def acceptance():
    """Record one pass/fail line per acceptance criterion."""

    def record(criterion, ok, detail):
        _ACCEPTANCE[criterion] = (ok, detail)
        assert ok, f"criterion {criterion}: {detail}"

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for criterion in sorted(_ACCEPTANCE):
        ok, detail = _ACCEPTANCE[criterion]
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"{status} criterion {criterion}: {detail}")


#: the thread counts of every BLAS and OpenMP runtime numpy may load
SINGLE_THREAD = dict.fromkeys(
    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
     "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"), "1")


def run_python(*args, env=None, preexec_fn=None):
    """Run the interpreter with ``args`` on this source tree in a fresh process.

    ``env`` adds variables to the child's environment, and ``preexec_fn`` runs
    in the child before the interpreter starts.
    """
    src = str(Path(maxproj.__file__).resolve().parents[1])
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, **(env or {}), PYTHONPATH=os.pathsep.join(path))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=300, preexec_fn=preexec_fn)


def _null_config(d, n, reps=20_000):
    return RunConfig(
        d=d,
        n=(n,),
        betas=(1, 2, 3, 4, 5, 6),
        null_replications=reps,
        seed=SEED_NULL,
        workers=WORKERS,
    )


@pytest.fixture(scope="session")
def nulls_d2_n100():
    """Full battery null statistics, d=2, n=100, 20000 replications."""
    return simulate_null(_null_config(2, 100), 100, competitors=True)


@pytest.fixture(scope="session")
def nulls_d2_n20():
    """Projection statistics only, d=2, n=20, 20000 replications."""
    return simulate_null(_null_config(2, 20), 20, competitors=False)


@pytest.fixture(scope="session")
def nulls_d3_n100():
    """Full battery null statistics, d=3, n=100, 20000 replications."""
    return simulate_null(_null_config(3, 100), 100, competitors=True)


@pytest.fixture(scope="session")
def table1_d2():
    """Published 0.95 null quantiles for d = 2, keyed by n, beta order 1..6."""
    from reference_tables import TABLE1

    return {n: np.array(vals) for n, vals in TABLE1[2].items()}
