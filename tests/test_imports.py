"""What the package and its commands import, and when.

``critvals`` without limit rows and ``test`` run on numpy alone, so they must
start without scipy, and so must ``power`` at d <= 3: its samplers, its
projection CDF (closed forms at d = 2 and 3) and its Kolmogorov tail
(computed in ``math``) need no scipy.  The kernel limit route, behind
``limit --method kernel`` and the ``inf`` rows of ``critvals``, factors its
covariance in place with ``scipy.linalg.eigh`` and loads ``scipy.linalg``
alone.  From d = 4 on, ``power`` loads ``scipy.special`` for ``betainc`` in
the projection CDF, and at d >= 5 also for the CvM kernel table, one
Gauss-Legendre pass over ``scipy.special`` functions; it loads nothing else
of scipy.  Commands that do call scipy load it in the parent process, before
a worker pool forks or after it closes, and the forked workers import
nothing at all: a module imported after the fork is imported once per
worker.
Every command here runs at least 128 replications, two chunks of 64, so that
``--workers 2`` really forks.
"""

import ast
import textwrap
from pathlib import Path

import numpy as np
import pytest

import maxproj
from conftest import run_python

POWER = ["power", "--d", "3", "--reps", "128", "--power-reps", "128",
         "--alt=vmf:kappa=1", "--alt=bing1:kappa=1", "--workers", "2"]
POWER_D2 = ["power", "--d", "2", "--reps", "128", "--power-reps", "64", "--alt=vmf:kappa=1",
            "--workers", "2"]
CRITVALS_INF = ["critvals", "--d", "3", "--n", "30", "inf", "--beta", "3", "4",
                "--cover-m", "200", "--reps", "128", "--workers", "2"]


def python(*args):
    proc = run_python(*args)
    assert proc.returncode == 0, proc.stderr
    return proc


def imported_modules(argv):
    """Module names that ``-X importtime`` reports for one CLI run, in order."""
    proc = python("-X", "importtime", "-m", "maxproj.cli", *argv)
    return [line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:") and "|" in line]


def scipy_packages(modules):
    """The scipy subpackages that ``modules`` reach into.

    ``from scipy import linalg`` imports the subpackage through importlib,
    which ``-X importtime`` does not report, so each subpackage is seen by
    the modules inside it.
    """
    return {".".join(m.split(".")[:2]) for m in modules if m.split(".")[0] == "scipy"}


@pytest.fixture(scope="module")
def catalogue(tmp_path_factory):
    rng = np.random.default_rng(4)
    path = tmp_path_factory.mktemp("imports") / "craters.csv"
    lat = np.degrees(np.arcsin(rng.uniform(-1.0, 1.0, 40)))
    lon = rng.uniform(-180.0, 180.0, 40)
    rows = "".join(f"{a!r},{b!r}\n" for a, b in zip(lat.tolist(), lon.tolist()))
    path.write_text("lat,lon\n" + rows)
    return str(path)


def test_importing_the_package_loads_no_scipy():
    proc = python("-c", "import sys, maxproj, maxproj.cli; "
                        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("argv", [
    ["critvals", "--d", "3", "--reps", "128", "--workers", "2"],
    ["test", "--data", "{catalogue}", "--reps", "128", "--cover-m", "500", "--workers", "2"],
    POWER,
    POWER_D2,
], ids=["critvals", "test", "power", "power-d2"])
def test_numpy_only_commands_import_no_scipy(argv, catalogue):
    argv = [a.format(catalogue=catalogue) for a in argv]
    scipy = [m for m in imported_modules(argv) if m.split(".")[0] == "scipy"]
    assert scipy == []


def test_finite_n_critvals_starts_no_thread_pool():
    # only the field draws of the limit routes run on threads; a command that
    # imports scipy.linalg or scipy.special loads concurrent.futures anyway
    modules = imported_modules(["critvals", "--d", "3", "--reps", "128", "--workers", "2"])
    assert [m for m in modules if m.split(".")[0] == "concurrent"] == []


@pytest.mark.parametrize("argv", [
    ["limit", "--d", "3", "--beta", "3", "4", "--method", "kernel", "--cover-m", "200",
     "--reps", "500"],
    CRITVALS_INF,
], ids=["limit-kernel", "critvals-inf"])
def test_kernel_limit_route_loads_only_scipy_linalg(argv):
    packages = scipy_packages(imported_modules(argv))
    assert "scipy.linalg" in packages
    assert packages & {"scipy.special", "scipy.integrate", "scipy.optimize"} == set()


def test_power_loads_scipy_once_before_workers_fork():
    # the CvM kernel table at d >= 5 needs neither scipy.integrate nor scipy.linalg
    power_d5 = ["power", "--d", "5", "--n", "12", "--beta", "1", "2", "3", "--cover-m", "50",
                "--reps", "128", "--power-reps", "64", "--alt=vmf:kappa=1", "--workers", "2"]
    modules = imported_modules(power_d5)
    assert modules.count("scipy.special") == 1
    assert scipy_packages(modules) & {"scipy.optimize", "scipy.integrate", "scipy.linalg"} == set()


_FORK_PROBE = textwrap.dedent("""
    import os, sys
    import maxproj.harness as harness
    from maxproj.cli import main

    at_fork = set()
    os.register_at_fork(after_in_child=lambda: at_fork.update(sys.modules))
    chunk = harness._worker_chunk

    def probe(args):
        assert at_fork, "the chunk ran in the parent process"
        out = chunk(args)
        new = sorted(set(sys.modules) - at_fork)
        assert not new, f"a worker imported {new}"
        return out

    harness._worker_chunk = probe
    raise SystemExit(main(sys.argv[1:]))
""")


@pytest.mark.parametrize("argv", [
    ["critvals", "--d", "3", "--reps", "128", "--workers", "2"],
    # the inf rows load scipy.linalg in the parent, after the pool closes
    CRITVALS_INF,
    POWER,
    POWER_D2,
    # the projection CDF at d >= 4 is scipy.special.betainc
    ["power", "--d", "4", "--n", "30", "--beta", "1", "2", "3", "--cover-m", "200",
     "--reps", "128", "--power-reps", "64", "--alt=bing1:kappa=1", "--workers", "2"],
    # the CvM kernel at d >= 5 is a table that each worker builds for itself
    ["power", "--d", "10", "--n", "12", "--beta", "1", "2", "3", "--cover-m", "50",
     "--reps", "128", "--power-reps", "64", "--alt=vmf:kappa=1", "--workers", "2"],
], ids=["critvals", "critvals-inf", "power", "power-d2", "power-d4", "power-d10"])
def test_forked_workers_import_nothing(argv):
    python("-c", _FORK_PROBE, *argv)


@pytest.mark.parametrize("module", ["maxproj", "maxproj.statistics"])
def test_public_names_resolve(module):
    namespace = {}
    exec(f"from {module} import *", namespace)
    names = __import__(module, fromlist=["__all__"]).__all__
    for name in names:
        assert name in namespace, name
    # the array statistics the harness runs are the library's entry points
    assert {"max_projection_values", "ca_statistic", "cvm_statistic"} <= set(names)


def test_every_public_function_is_run_or_exported():
    # a public top-level function of the package is called from elsewhere in
    # it or exported; an oracle that only the tests call lives in tests/oracles.py
    trees = {path.name: ast.parse(path.read_text())
             for path in Path(maxproj.__file__).parent.glob("*.py")}
    used = set()
    for tree in trees.values():
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    used.add((node.id, top))
                elif isinstance(node, ast.Attribute):
                    used.add((node.attr, top))
    unused = [
        f"{module}:{top.name}"
        for module, tree in trees.items()
        for top in tree.body
        if isinstance(top, ast.FunctionDef) and not top.name.startswith("_")
        and top.name not in maxproj.__all__
        and not any(name == top.name and owner is not top for name, owner in used)
    ]
    assert unused == []
