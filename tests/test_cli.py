import csv
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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


@pytest.mark.parametrize("beta", ["0", "-1"])
def test_bad_power_is_a_usage_error(beta):
    src = str(Path(maxproj.__file__).resolve().parents[1])
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, "-m", "maxproj.cli", "critvals", "--d", "3", "--beta", beta,
         "--reps", "10"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "powers must be integers >= 1" in proc.stderr
