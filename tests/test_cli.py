import contextlib
import csv
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import maxproj
from maxproj.cli import main


def run_cli(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


def test_bahadur_table_csv(capsys):
    code, out, err = run_cli(["bahadur", "--d", "2", "3"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    by_key = {(r["alternative"], r["beta"]): r for r in rows}
    assert float(by_key[("vMF", "1")]["d=2"]) == 1.0
    assert float(by_key[("vMF", "3")]["d=3"]) == 0.84
    assert float(by_key[("LP6", "6")]["d=2"]) == 0.004


def test_bahadur_json(capsys):
    code, out, _ = run_cli(["bahadur", "--format", "json"], capsys)
    assert code == 0
    import json

    rows = json.loads(out)
    assert any(r["alternative"] == "W" and r["beta"] == 2 and r["d=10"] == 1.0 for r in rows)


def test_critvals_deterministic_across_workers(tmp_path, capsys):
    common = [
        "critvals",
        "--d", "2",
        "--n", "25",
        "--beta", "1", "2", "3",
        "--reps", "300",
        "--cover-m", "400",
        "--seed", "7",
    ]
    f1, f2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
    code1, _, _ = run_cli(common + ["--workers", "1", "--out", str(f1)], capsys)
    code2, _, _ = run_cli(common + ["--workers", "8", "--out", str(f2)], capsys)
    assert code1 == 0 and code2 == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_limit_subcommand(capsys):
    code, out, _ = run_cli(
        ["limit", "--d", "2", "--beta", "1", "--method", "kernel",
         "--cover-m", "200", "--reps", "4000", "--seed", "3"],
        capsys,
    )
    assert code == 0
    row = next(csv.DictReader(io.StringIO(out)))
    assert row["method"] == "kernel"
    # chi2_2/2 95% quantile ~ 3.0 at modest simulation size
    assert 2.5 <= float(row["quantile"]) <= 3.4


def test_power_subcommand_orders_alternatives(capsys):
    code, out, _ = run_cli(
        ["power", "--d", "2", "--n", "40", "--beta", "1",
         "--reps", "400", "--power-reps", "200", "--cover-m", "300",
         "--alt", "uniform", "--alt", "vmf:kappa=2", "--seed", "5"],
        capsys,
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    power = {(r["alternative"], r["statistic"]): float(r["power"]) for r in rows}
    assert power[("vmf:kappa=2", "T1")] > 0.9
    assert power[("uniform", "T1")] < 0.12


def test_test_subcommand_and_ingest_check(tmp_path, capsys):
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((60, 3))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    path = tmp_path / "data.csv"
    lines = ["x1,x2,x3"] + [",".join(repr(float(v)) for v in row) for row in pts]
    path.write_text("\n".join(lines) + "\n")
    code, out, _ = run_cli(
        ["test", "--data", str(path), "--beta", "1", "2",
         "--reps", "199", "--cover-m", "300", "--seed", "2"],
        capsys,
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert {r["statistic"] for r in rows} == {"T1", "T2"}
    for r in rows:
        assert 0.0 < float(r["pvalue"]) <= 1.0

    code, out, _ = run_cli(["ingest-check", "--data", str(path)], capsys)
    assert code == 0
    assert "kept=60" in out


def test_exit_codes(tmp_path, capsys):
    # usage error -> 1
    with pytest.raises(SystemExit) as exc:
        main(["critvals", "--badflag"])
    assert exc.value.code == 1
    # data error -> 2
    bad = tmp_path / "bad.csv"
    bad.write_text("foo\n1\n")
    code, _, err = run_cli(["ingest-check", "--data", str(bad)], capsys)
    assert code == 2
    assert "data error" in err
    code, _, err = run_cli(["test", "--data", str(tmp_path / "missing.csv")], capsys)
    assert code == 2


def run_module(args):
    """Run ``python -m maxproj.cli`` on this source tree in a fresh process."""
    src = str(Path(maxproj.__file__).resolve().parents[1])
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run(
        [sys.executable, "-m", "maxproj.cli", *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


@pytest.mark.parametrize("beta", ["0", "-1"])
def test_bad_power_is_a_usage_error(beta):
    proc = run_module(["critvals", "--d", "3", "--beta", beta, "--reps", "10"])
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "powers must be integers >= 1" in proc.stderr


@pytest.mark.parametrize("args, message", [
    (["critvals", "--seed", "-1"], "seed must be >= 0"),
    (["limit", "--seed", "-1"], "seed must be >= 0"),
    (["critvals", "--n", "-5"], "sample sizes must be >= 1"),
])
def test_negative_seed_or_size_is_a_usage_error(args, message):
    proc = run_module(args + ["--reps", "10"])
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert message in proc.stderr


def test_non_finite_rows_are_skipped(tmp_path, capsys):
    path = tmp_path / "data.csv"
    path.write_text("x1,x2,x3\n1,0,0\n0,1,0\nnan,0.5,0.5\n0,0,1\ninf,0,1\n0.6,0.8,0\n0,0.6,0.8\n")
    code, out, _ = run_cli(["ingest-check", "--data", str(path)], capsys)
    assert code == 0
    assert "read=7 kept=5 repaired=0 skipped=2" in out
    code, out, _ = run_cli(["test", "--data", str(path), "--reps", "20", "--cover-m", "100"],
                           capsys)
    assert code == 0
    assert all(row["rows_skipped"] == "2" for row in csv.DictReader(io.StringIO(out)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    command=st.sampled_from(["critvals", "limit"]),
    d=st.integers(-1, 5),
    n=st.lists(st.integers(-2, 40).map(str) | st.sampled_from(["inf", "inf*"]),
               min_size=1, max_size=2),
    cover_m=st.integers(-2, 50),
    betas=st.lists(st.integers(-1, 6), min_size=1, max_size=2),
    alpha=st.sampled_from([-0.5, 0.0, 0.05, 0.5, 1.0]),
    seed=st.integers(-2, 3),
    reps=st.integers(-1, 5),
)
def test_cli_fuzz_exits_with_a_documented_code(command, d, n, cover_m, betas, alpha, seed,
                                               reps):
    argv = [command, "--d", str(d), "--n", *n, "--cover-m", str(cover_m),
            "--beta", *map(str, betas), "--alpha", str(alpha), "--seed", str(seed),
            "--reps", str(reps)]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse
            code = exc.code
            assert code == 1
    assert code in (0, 1, 2, 3)
