import contextlib
import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import maxproj.limits as limits
from conftest import run_python
from maxproj.cli import SUBCOMMANDS, main
from maxproj.geometry import uniform_points
from maxproj.harness import RunConfig, cmd_critvals, cmd_limit, write_rows
from maxproj.rng import stream


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


@pytest.mark.parametrize("argv", [
    ["power", "--d", "3", "--n", "30", "--reps", "128", "--power-reps", "128", "--cover-m", "500",
     "--alt=vmf:kappa=1", "--alt=mixvmf2:p=0.5", "--alt=bing1:kappa=1", "--alt=lp:m=3,kappa=1"],
    ["critvals", "--n", "20", "30", "inf", "--reps", "128"],
], ids=["power", "critvals"])
def test_one_pool_commands_match_across_workers(argv, tmp_path, capsys):
    # every job of the command shares one pool, whatever the worker count
    outputs = []
    for workers in (1, 2, 3):
        path = tmp_path / f"w{workers}.csv"
        code, _, _ = run_cli(argv + ["--seed", "5", "--workers", str(workers), "--out", str(path)],
                             capsys)
        assert code == 0
        outputs.append(path.read_bytes())
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


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


def test_library_limit_rows_match_the_cli(capsys):
    # the limit-field cover and replications of the inf/inf* rows and of
    # limit come from cover_m and null_replications, as --cover-m and --reps
    cfg = RunConfig(d=2, n=(30, "inf", "inf*"), betas=(1, 3), cover_m=300,
                    null_replications=500, seed=4)
    argv = ["--d", "2", "--beta", "1", "3", "--cover-m", "300", "--reps", "500", "--seed", "4"]
    for command, rows in ((["critvals", "--n", "30", "inf", "inf*"], cmd_critvals(cfg)),
                          (["limit"], cmd_limit(cfg))):
        code, out, _ = run_cli([*command, *argv], capsys)
        assert code == 0
        assert out == write_rows(rows)
        assert {(r["replications"], r["cover_m"]) for r in rows} == {(500, 300)}


@pytest.mark.parametrize("plain, repeated", [
    (["limit", "--d", "3", "--beta", "3"], ["limit", "--d", "3", "--beta", "3", "3"]),
    (["critvals", "--n", "7", "inf", "--beta", "1"],
     ["critvals", "--n", "7", "7", "inf", "inf", "--beta", "1", "1"]),
], ids=["limit", "critvals"])
def test_repeated_sizes_and_powers_add_no_rows(plain, repeated, capsys):
    common = ["--cover-m", "50", "--reps", "100", "--seed", "3"]
    first = run_cli(plain + common, capsys)
    assert first[0] == 0
    assert run_cli(repeated + common, capsys) == first


#: a small run of each simulation subcommand, option -> values
BASE_ARGS = {
    "critvals": {"--d": ["2"], "--n": ["20"], "--beta": ["1", "3"], "--alpha": ["0.05"],
                 "--cover-m": ["50"], "--reps": ["100"], "--seed": ["1"]},
    "power": {"--d": ["2"], "--n": ["20"], "--beta": ["1", "3"], "--alpha": ["0.05"],
              "--cover-m": ["50"], "--reps": ["64"], "--power-reps": ["64"], "--seed": ["1"],
              "--alt": ["vmf:kappa=1"]},
    "test": {"--data": ["{data}"], "--beta": ["1", "3"], "--cover-m": ["50"], "--reps": ["50"],
             "--seed": ["1"]},
    "limit": {"--d": ["2"], "--beta": ["1"], "--alpha": ["0.05"], "--cover-m": ["50"],
              "--reps": ["100"], "--seed": ["1"], "--method": ["kernel"]},
}

#: option -> values other than its base values
OTHER_ARGS = {"--d": ["4"], "--n": ["21"], "--beta": ["1", "4"], "--alpha": ["0.1"],
              "--cover-m": ["5"], "--reps": ["101"], "--power-reps": ["65"], "--seed": ["2"],
              "--alt": ["vmf:kappa=2"], "--data": ["{other}"], "--min-diameter": ["100"],
              "--method": ["harmonic"], "--workers": ["2"]}

#: options a subcommand accepts that change no output byte
NO_EFFECT = {"critvals": {"--workers"}, "power": {"--workers"},
             "test": {"--workers", "--d", "--n"}, "limit": {"--workers"}}


@pytest.mark.parametrize("command", sorted(BASE_ARGS))
def test_every_option_changes_the_output(command, tmp_path, capsys):
    rng = np.random.default_rng(9)
    paths = {}
    for name in ("data", "other"):
        pts = rng.standard_normal((40, 3))
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        rows = [",".join(map(repr, [*row.tolist(), 50.0 + 5.0 * i])) for i, row in enumerate(pts)]
        paths[name] = tmp_path / f"{name}.csv"
        paths[name].write_text("x1,x2,x3,diameter_km\n" + "\n".join(rows) + "\n")

    def output(args):
        argv = [command]
        for flag, values in args.items():
            values = [v.format(**paths) for v in values]
            argv += [f"{flag}={v}" for v in values] if flag == "--alt" else [flag, *values]
        code, out, err = run_cli(argv, capsys)
        assert code == 0, err
        return out

    base = output(BASE_ARGS[command])
    for flag in sorted(set(SUBCOMMANDS[command][1]) - {"--out", "--format"}):
        changed = output({**BASE_ARGS[command], flag: OTHER_ARGS[flag]})
        assert (changed == base) == (flag in NO_EFFECT[command]), flag


@pytest.mark.parametrize("argv", [["limit", "--n", "5"],
                                  ["test", "--data", "unused.csv", "--alpha", "0.1"]])
def test_options_a_command_does_not_read_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: maxproj") and "unrecognized arguments" in err


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


@pytest.mark.parametrize("args", [
    ["limit", "--method", "kernel", "--cover-m", "1"],
    ["limit", "--method", "harmonic", "--cover-m", "1"],
    ["critvals", "--n", "inf", "--cover-m", "2"],
    ["critvals", "--n", "inf*", "--cover-m", "2"],
    ["critvals", "--n", "20", "--beta", "3", "--cover-m", "2"],
    ["power", "--n", "20", "--beta", "3", "--cover-m", "2", "--alt", "vmf:kappa=1"],
], ids=["limit-kernel", "limit-harmonic", "critvals-inf", "critvals-inf*", "critvals-20",
        "power-20"])
def test_limit_cover_smaller_than_d_is_a_usage_error(args, capsys):
    code, out, err = run_cli(args + ["--d", "3", "--reps", "10"], capsys)
    assert code == 1
    assert out == ""
    assert "must be at least d = 3" in err


def test_data_cover_smaller_than_d_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "x3.csv"
    rows = uniform_points(3, 15, stream(8)).tolist()
    path.write_text("x1,x2,x3\n" + "".join(",".join(map(repr, r)) + "\n" for r in rows))
    args = ["test", "--data", str(path), "--cover-m", "2", "--reps", "10", "--beta"]
    code, out, err = run_cli(args + ["3"], capsys)
    assert code == 1
    assert out == ""
    assert err == "maxproj: error: cover size 2 must be at least d = 3\n"
    # without a power of 3 or more no cover is drawn, as in the null replications
    code, out, err = run_cli(args + ["1", "2"], capsys)
    assert code == 0
    assert err == ""
    assert {r["cover_m"] for r in csv.DictReader(io.StringIO(out))} == {"2"}


def run_module(args):
    """Run ``python -m maxproj.cli`` on this source tree in a fresh process."""
    return run_python("-m", "maxproj.cli", *args)


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


@pytest.mark.parametrize("spec", [
    "vmf",  # missing key
    "lp:kappa=1",
    "vmf:kapa=1",  # unknown key
    "mixvmf2:p=0.5,k9=3",
    "lp:m=nan,kappa=1",  # non-finite value
    "vmf:kappa=nan",
    "vmf:kappa=inf",
    "bing1:kappa=nan",
    "lp:m=2.5,kappa=1",  # non-integer order
    "vmf:kappa=abc",  # non-numeric value
    "vmf:kappa=1=2",
    "lp:m=100,kappa=1",  # order above the cap
    "lp:m=1e30,kappa=1",
])
def test_bad_alternative_spec_is_a_usage_error(spec):
    proc = run_module(["power", "--d", "3", "--n", "30", "--reps", "10", "--power-reps", "10",
                       "--alt", spec])
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("maxproj: error: preset")


def test_unwritable_out_path_is_a_usage_error(tmp_path):
    proc = run_module(["bahadur", "--d", "2", "--out", str(tmp_path / "missing" / "x.csv")])
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("maxproj: error: cannot write")
    assert len(proc.stderr.splitlines()) == 1


@pytest.mark.parametrize("error", [np.linalg.LinAlgError, FloatingPointError])
def test_linear_algebra_failure_is_a_numerical_error(monkeypatch, capsys, error):
    def eigh(matrix):
        raise error("did not converge")

    monkeypatch.setattr(limits.np.linalg, "eigh", eigh)
    code, out, err = run_cli(["limit", "--d", "3", "--beta", "3", "--cover-m", "50",
                              "--reps", "10"], capsys)
    assert code == 3
    assert out == ""
    assert err == "maxproj: numerical error: did not converge\n"


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


@pytest.fixture(scope="module")
def fuzz_data(tmp_path_factory):
    """A 12-row lat/lon catalogue and a malformed file for the fuzzed data commands."""
    folder = tmp_path_factory.mktemp("fuzz")
    good, malformed = folder / "craters.csv", folder / "malformed.csv"
    rows = [f"{lat},{lon}" for lat, lon in zip(range(-80, 81, 15), range(-170, 171, 31))]
    good.write_text("lat,lon\n" + "\n".join(rows) + "\n")
    malformed.write_text("lat,lon\n10,20\nabc,12\n1,2,3\n")
    return {"good": str(good), "malformed": str(malformed)}


@settings(max_examples=160, deadline=None, derandomize=True)
@given(
    command=st.sampled_from(["critvals", "limit", "power", "test", "bahadur", "ingest-check"]),
    d=st.integers(-1, 5),
    n=st.lists(st.integers(-2, 40).map(str) | st.sampled_from(["inf", "inf*"]),
               min_size=1, max_size=2),
    cover_m=st.integers(-2, 50),
    betas=st.lists(st.integers(-1, 6), min_size=1, max_size=2),
    alpha=st.sampled_from([-0.5, 0.0, 0.05, 0.5, 1.0]),
    seed=st.integers(-2, 3),
    reps=st.integers(-1, 5),
    power_reps=st.integers(-1, 5),
    alts=st.lists(st.sampled_from(["uniform", "vmf:kappa=1", "mixvmf2:p=0.5", "bing1:kappa=1",
                                   "lp:m=3,kappa=1", "vmf:kappa=-1", "lp:m=3,kappa=2",
                                   "nosuch:kappa=1", "vmf:kappa=abc", "vmf:kappa=1=2"]),
                  min_size=1, max_size=2),
    data=st.sampled_from(["good", "malformed"]),
    min_diameter=st.sampled_from([None, "-1", "0", "150", "nan"]),
    fmt=st.sampled_from(["csv", "json"]),
)
def test_cli_fuzz_exits_with_a_documented_code(fuzz_data, command, d, n, cover_m, betas, alpha,
                                               seed, reps, power_reps, alts, data, min_diameter,
                                               fmt):
    values = {"--d": [str(d)], "--n": n, "--cover-m": [str(cover_m)],
              "--beta": [str(b) for b in betas], "--alpha": [str(alpha)], "--seed": [str(seed)],
              "--reps": [str(reps)], "--power-reps": [str(power_reps)],
              "--data": [fuzz_data[data]], "--format": [fmt]}
    if min_diameter is not None:
        values["--min-diameter"] = [min_diameter]
    if command == "bahadur":
        argv = [command, "--d", str(d), str(d + 2), "--format", fmt]
    else:
        # only the options the command registers, so that no example dies in argparse
        options = (SUBCOMMANDS[command][1] if command in SUBCOMMANDS
                   else ("--data", "--min-diameter"))
        argv = [command]
        for flag in options:
            if flag == "--alt":
                argv += [f"--alt={a}" for a in alts]
            elif flag in values:
                argv += [flag, *values[flag]]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse
            code = exc.code
            assert code == 1
    assert code in (0, 1, 2, 3)


_VALID_ALTS = ("uniform", "vmf:kappa=1", "mixvmf2:p=0.5", "bing1:kappa=1", "lp:m=3,kappa=1")


@st.composite
def valid_argv(draw, folder):
    """Argv of a simulation command that holds only values the command accepts."""
    command = draw(st.sampled_from(["critvals", "power", "test", "limit"]))
    d = draw(st.integers(2, 4))
    seed = draw(st.integers(0, 2**32))
    argv = [command, "--beta", *map(str, draw(st.lists(st.integers(1, 6), min_size=1,
                                                        max_size=3))),
            "--cover-m", str(draw(st.integers(d, 40))), "--reps", str(draw(st.integers(1, 8))),
            "--seed", str(seed)]
    alpha = str(draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)))
    finite_n = st.integers(5, 30).map(str)
    if command == "test":
        # the dimension and the sample size are the data file's
        n = draw(st.integers(5, 30))
        path = folder / f"x_{d}_{n}_{seed}.csv"
        rows = uniform_points(d, n, stream(seed))
        path.write_text(",".join(f"x{k}" for k in range(1, d + 1)) + "\n"
                        + "".join(",".join(map(repr, row)) + "\n" for row in rows.tolist()))
        return argv + ["--data", str(path)]
    argv += ["--d", str(d), "--alpha", alpha]
    if command == "critvals":
        # the harmonic route of inf* exists for d in {2, 3} only
        tokens = finite_n | st.sampled_from(["inf", "inf*"] if d <= 3 else ["inf"])
        return argv + ["--n", *draw(st.lists(tokens, min_size=1, max_size=3))]
    if command == "power":
        alts = draw(st.lists(st.sampled_from(_VALID_ALTS), min_size=1, max_size=2))
        return argv + ["--n", draw(finite_n), "--power-reps", str(draw(st.integers(1, 8))),
                       *(f"--alt={a}" for a in alts)]
    return argv + ["--method", draw(st.sampled_from(["kernel", "harmonic"] if d <= 3
                                                    else ["kernel"]))]


@pytest.fixture(scope="module")
def valid_folder(tmp_path_factory):
    return tmp_path_factory.mktemp("valid")


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_cli_fuzz_valid_argv_writes_rows(valid_folder, data):
    argv = data.draw(valid_argv(valid_folder))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == 0, err.getvalue()
    assert list(csv.DictReader(io.StringIO(out.getvalue())))
