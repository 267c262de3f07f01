import math
import os
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import maxproj
import maxproj.harness as harness
from conftest import SEED_SIZE, WORKERS
from maxproj import DataError, InputError
from maxproj.geometry import uniform_points
from maxproj.harness import (
    RunConfig,
    cmd_critvals,
    cmd_power,
    cmd_test,
    critical_value,
    evaluate_battery,
    ingest,
    mc_pvalue,
    rejection_rates,
    simulate_null,
    write_rows,
)
from maxproj.rng import stream
from maxproj.samplers import VonMisesFisher, sample


def small_config(**kw):
    base = dict(
        d=2,
        n=(30,),
        betas=(1, 2, 3),
        null_replications=200,
        seed=99,
        workers=1,
    )
    base.update(kw)
    return RunConfig(**base)


def test_run_is_independent_of_worker_count():
    a = simulate_null(small_config(workers=1), 30, competitors=True)
    b = simulate_null(small_config(workers=4), 30, competitors=True)
    assert sorted(a) == sorted(b)
    for name in a:
        assert np.array_equal(a[name], b[name])


def test_negative_seed_is_an_input_error():
    with pytest.raises(InputError):
        stream(-1)
    with pytest.raises(InputError):
        small_config(seed=-1)


@pytest.mark.parametrize("bad, message", [
    (dict(d=1), "dimension must be an integer >= 2"),
    (dict(d=-3), "dimension must be an integer >= 2"),
    (dict(cover_m=0), "cover_m must be an integer >= 1"),
    (dict(min_diameter=float("nan")), "min_diameter must be a number"),
    # a setting of the wrong type is an input error, not a TypeError
    (dict(alpha=None), r"alpha must lie in \(0, 1\), got None"),
    (dict(alpha="0.05"), r"alpha must lie in \(0, 1\), got '0.05'"),
    (dict(min_diameter="150"), "min_diameter must be a number, got '150'"),
    (dict(n=10), "n must be a sequence, got 10"),
    (dict(betas=3), "betas must be a sequence, got 3"),
])
def test_dimension_and_cover_size_are_checked_up_front(bad, message):
    with pytest.raises(InputError, match=message):
        small_config(**bad)


@pytest.mark.parametrize("field, message", [("n", "no sample size given"),
                                            ("betas", "no power given")])
def test_empty_sample_sizes_or_powers_are_input_errors(field, message):
    # an empty n would give cmd_critvals no row to write
    with pytest.raises(InputError, match=message):
        small_config(**{field: ()})


@pytest.mark.parametrize("workers, replications, processes", [
    (16, 128, 2),  # two chunks of 64
    (2, 1000, 2),
    (3, 200, 3),  # four chunks: 64, 64, 64, 8
])
def test_pool_starts_no_more_workers_than_chunks(monkeypatch, workers, replications,
                                                  processes):
    started = []

    class Pool:
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, items, chunksize=None):
            return [func(item) for item in items]

    def run_on(cpus, workers, replications):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        return harness.run_replications(task, replications, workers)

    monkeypatch.setattr(harness, "get_context", lambda method: SimpleNamespace(Pool=Pool))
    task = {"d": 2, "n": 5, "betas": (1,), "m": 10, "seed": 1, "ns": (0, 5),
            "competitors": False}
    serial = harness.run_replications(task, replications)["T1"]
    assert np.array_equal(run_on(64, workers, replications)["T1"], serial)
    assert started == [processes]
    # the pool is no larger than the usable CPUs, and one CPU runs in-process
    assert np.array_equal(run_on(2, workers, replications)["T1"], serial)
    assert started[1:] == [2]
    assert np.array_equal(run_on(1, workers, replications)["T1"], serial)
    assert started[1:] == [2]
    run_on(2, 1000, 2000)
    assert started[2:] == [2]
    # the chunks of several jobs share one pool
    del started[:]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
    outs = harness.run_jobs([(task, replications), (task, 2 * replications)], workers)
    assert len(started) == 1
    assert np.array_equal(outs[0]["T1"], serial)
    assert np.array_equal(outs[1]["T1"], harness.run_replications(task, 2 * replications)["T1"])


#: replications of each exact-law check, and the KS distance above which it
#: fails: about the 0.1% critical value 1.95 / sqrt(R) of the Kolmogorov law
EXACT_LAW_REPS = 20_000
EXACT_LAW_KS = 1.95 / math.sqrt(EXACT_LAW_REPS)


@pytest.mark.parametrize("d", (2, 3, 5, 10))
def test_t1_of_two_points_has_its_exact_law(d):
    # at n = 2, T1 = 2 ||(x1 + x2) / 2||^2 = 1 + x1.x2, and x1.x2 has the
    # density of one projection b.U, so T1 / 2 ~ Beta((d-1)/2, (d-1)/2):
    # the arcsine law at d = 2, uniform on [0, 1] at d = 3.  With betas=(1,)
    # no cover is drawn
    from scipy import stats

    config = small_config(d=d, n=(2,), betas=(1,), null_replications=EXACT_LAW_REPS,
                          workers=WORKERS)
    t1 = harness.run_replications(*harness._null_job(config, 2), config.workers)["T1"]
    a = (d - 1) / 2
    assert stats.kstest(t1 / 2, stats.beta(a, a).cdf).statistic <= EXACT_LAW_KS


def test_battery_names_by_dimension():
    names = {}
    for d in (2, 3):
        x = uniform_points(d, 30, stream(1))
        cover = uniform_points(d, 50, stream(2))
        names[d] = list(evaluate_battery(x, (1, 2, 3), cover_points=cover, rng_ca=stream(3)))
        # the competitors run only with the stream of their random directions
        assert list(evaluate_battery(x, (1, 2, 3), cover_points=cover)) == ["T1", "T2", "T3"]
    assert names[2] == ["T1", "T2", "T3", "kuiper", "watson_u2", "ajne", "rayleigh_mod", "ca25"]
    assert names[3] == ["T1", "T2", "T3", "ajne", "rayleigh_mod", "bingham", "gine", "ca100",
                        "cvm"]


def test_power_defaults_to_the_study_alternatives():
    # the CLI's power command without --alt runs the same seven
    config = RunConfig(d=2, n=(20,), betas=(1,), null_replications=64, power_replications=64)
    rows = cmd_power(config)
    assert list(dict.fromkeys(row["alternative"] for row in rows)) == [
        "uniform", "vmf:kappa=0.5", "vmf:kappa=1", "mixvmf2:p=0.5", "bing1:kappa=1",
        "lp:m=3,kappa=1", "lp:m=4,kappa=1"]
    with pytest.raises(InputError, match="no alternatives"):
        cmd_power(RunConfig(d=2, n=(20,), alternatives=()))


def test_evaluate_battery_requires_cover_for_high_powers():
    x = uniform_points(2, 20, stream(1))
    with pytest.raises(InputError):
        evaluate_battery(x, (3,), cover_points=None)


def test_mc_pvalue_correction_and_tails():
    nulls = np.arange(1.0, 100.0)  # 99 values
    assert mc_pvalue(nulls, 99.5, "T3") == pytest.approx(1.0 / 100.0)
    assert mc_pvalue(nulls, 0.0, "T3") == pytest.approx(1.0)
    # the random-projection test rejects in the lower tail
    assert mc_pvalue(nulls, 0.5, "ca100") == pytest.approx(1.0 / 100.0)
    assert mc_pvalue(nulls, 0.5, "ca25") == pytest.approx(1.0 / 100.0)
    assert mc_pvalue(nulls, 50.0, "T3") == pytest.approx(51.0 / 100.0)


def test_critical_value_tail_selection():
    vals = np.linspace(0.0, 1.0, 10_001)
    assert critical_value(vals, 0.05, "T1") == pytest.approx(0.95, abs=1e-3)
    assert critical_value(vals, 0.05, "ca25") == pytest.approx(0.05, abs=1e-3)


@pytest.mark.parametrize("call, message", [
    (lambda: write_rows([]), "no rows to write"),
    (lambda: critical_value(np.array([]), 0.05, "T1"), "no null values"),
    (lambda: mc_pvalue([], 1.0, "T1"), "no null values"),
], ids=["write_rows", "critical_value", "mc_pvalue"])
def test_empty_input_is_an_input_error(call, message):
    # no row has no header to write, and no null value no quantile or tail count
    with pytest.raises(InputError, match=message):
        call()


def test_rejection_rates_directions():
    stats = {"T1": np.array([0.0, 1.0, 2.0, 3.0]), "ca25": np.array([0.01, 0.5, 0.9, 0.02])}
    rates = rejection_rates(stats, {"T1": 1.5, "ca25": 0.05})
    assert rates["T1"] == 0.5
    assert rates["ca25"] == 0.5


def test_cmd_critvals_rows_and_limit_rows():
    cfg = small_config(n=(30, "inf"), betas=(1, 2), null_replications=300, cover_m=200)
    rows = cmd_critvals(cfg)
    stats = {(r["n"], r["statistic"]) for r in rows}
    assert (30, "T1") in stats and ("inf", "T2") in stats
    for r in rows:
        assert r["critical_value"] > 0
        assert r["tool_version"] == "0.1.0"


@pytest.mark.filterwarnings("ignore::UserWarning")  # setuptools calls [tool.setuptools] beta
def test_version_has_one_source():
    from setuptools.config.pyprojecttoml import read_configuration

    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    version = read_configuration(pyproject)["project"]["version"]
    row = cmd_critvals(small_config(betas=(1,), null_replications=10))[0]
    assert version == maxproj.__version__ == row["tool_version"]


def test_csv_output_is_stable_and_quoted():
    rows = [
        {"a": 1, "b": 0.5, "label": "x,y"},
        {"a": 2, "b": float(1.0 / 3.0), "label": "plain"},
    ]
    text = write_rows(rows, fmt="csv")
    assert text.splitlines()[0] == "a,b,label"
    assert '"x,y"' in text
    assert repr(1.0 / 3.0) in text
    again = write_rows(rows, fmt="csv")
    assert text == again
    js = write_rows(rows, fmt="json")
    assert js.startswith("[")


def test_unwritable_output_path_is_an_input_error(tmp_path):
    with pytest.raises(InputError, match="cannot write"):
        write_rows([{"a": 1}], path=tmp_path / "missing" / "out.csv")
    with pytest.raises(InputError, match="cannot write"):
        write_rows([{"a": 1}], path=tmp_path)


# --- ingestion -----------------------------------------------------------------


def test_ingest_latlon(tmp_path):
    p = tmp_path / "pts.csv"
    p.write_text("lat,lon\n0,0\n90,10\n")
    x, report = ingest(p)
    assert report.schema == "latlon"
    assert report.rows_read == 2 and report.rows_kept == 2
    np.testing.assert_allclose(x[0], [1, 0, 0], atol=1e-12)
    # a UTF-8 byte-order mark is no part of the first column name
    p.write_bytes(b"\xef\xbb\xbflat,lon\n0,0\n90,10\n")
    assert np.array_equal(ingest(p)[0], x)


def test_ingest_coordinates_with_repair(tmp_path):
    p = tmp_path / "pts.csv"
    p.write_text("x1,x2\n0.6,0.8\n0.3,0.4\n0,0\n")
    x, report = ingest(p)
    assert report.rows_read == 3
    assert report.rows_repaired == 1  # norm 0.5 row renormalized
    assert report.rows_skipped == 1  # zero row dropped
    assert report.rows_kept == 2
    np.testing.assert_allclose(x[0], [0.6, 0.8], atol=1e-12)
    np.testing.assert_allclose(x[1], [0.6, 0.8], atol=1e-12)


def test_ingest_skips_non_finite_rows(tmp_path):
    p = tmp_path / "pts.csv"
    p.write_text("x1,x2,x3\n1,0,0\n0,1,0\nnan,0.5,0.5\n0,0,1\ninf,0,1\n0.6,0.8,0\n0,0.6,0.8\n")
    x, report = ingest(p)
    assert (report.rows_read, report.rows_kept) == (7, 5)
    assert (report.rows_skipped, report.rows_repaired) == (2, 0)
    assert np.all(np.isfinite(x))


def test_ingest_diameter_filter(tmp_path):
    p = tmp_path / "craters.csv"
    p.write_text("lat,lon,diameter_km\n10,20,200\n-5,40,100\n0,0,151\n3,4,nan\n")
    x, report = ingest(p, min_diameter=150.0)
    assert report.rows_filtered == 2  # 100 and nan
    assert x.shape[0] == 2
    # the diameter column is read only under the filter
    p.write_text("lat,lon,diameter_km\n10,20,200\n-5,40,\n")
    assert ingest(p)[0].shape == (2, 3)
    with pytest.raises(DataError, match="craters.csv:3"):
        ingest(p, min_diameter=150.0)


def test_ingest_errors(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("foo,bar\n1,2\n")
    with pytest.raises(DataError, match="accepted"):
        ingest(bad)
    mal = tmp_path / "mal.csv"
    mal.write_text("lat,lon\n10,xyz\n")
    with pytest.raises(DataError, match="mal.csv:2"):
        ingest(mal)
    # each row is read once, so the first bad row in file order is named: the
    # latitude of line 2, not the unparsable line 3
    first = tmp_path / "first.csv"
    first.write_text("lat,lon\n95,0\n1,abc\n")
    with pytest.raises(DataError, match=r"first.csv:2: latitude 95.0 outside"):
        ingest(first)
    missing = tmp_path / "nope.csv"
    with pytest.raises(DataError, match="cannot read"):
        ingest(missing)
    latin1 = tmp_path / "latin1.csv"
    latin1.write_bytes("lat,lon,name\n10,20,Volta\n-5,40,Crat\u00e9re\n".encode("latin-1"))
    with pytest.raises(DataError, match="latin1.csv: not UTF-8 text"):
        ingest(latin1)
    nofilter = tmp_path / "nofilter.csv"
    nofilter.write_text("lat,lon\n1,2\n")
    with pytest.raises(DataError, match="diameter"):
        ingest(nofilter, min_diameter=10.0)


# --- data testing ----------------------------------------------------------------


def test_cmd_test_detects_concentrated_sample(tmp_path):
    theta = np.array([0.3, -0.5, 0.81])
    theta = theta / np.linalg.norm(theta)
    x = sample(VonMisesFisher(theta, 1.0), 119, stream(314))
    path = tmp_path / "obs.csv"
    rows = "\n".join(",".join(repr(float(v)) for v in row) for row in x)
    path.write_text("x1,x2,x3\n" + rows + "\n")
    cfg = RunConfig(
        d=3,
        n=(119,),
        betas=(1, 2),
        null_replications=999,
        seed=7,
        workers=WORKERS,
        data=str(path),
        cover_m=2000,
    )
    out = cmd_test(cfg)
    by_name = {r["statistic"]: r for r in out}
    assert by_name["T1"]["pvalue"] < 0.01
    assert by_name["T1"]["n"] == 119
    assert by_name["T1"]["rows_read"] == 119


def test_pvalues_calibrated_under_uniformity():
    # shared null table, 200 fresh observed statistics: P(p < 0.05) ~ 0.05
    d, n, reps = 3, 119, 999
    cfg = RunConfig(d=d, n=(n,), betas=(1,), null_replications=reps, seed=41, workers=1)
    nulls = simulate_null(cfg, n, competitors=False)["T1"]
    hits = 0
    for r in range(200):
        x = uniform_points(d, n, stream(SEED_SIZE, r))
        p = mc_pvalue(nulls, float(n * np.linalg.norm(x.mean(axis=0)) ** 2), "T1")
        hits += p < 0.05
    assert abs(hits / 200 - 0.05) <= 0.03


@pytest.mark.acceptance
def test_table1_regression_d3():
    # completes the 24-entry d in {2, 3} regression; the d = 2 half is
    # asserted by acceptance criterion 6.  Our side runs 60000 replications
    # so the combined standard error is dominated by the published values'
    # own 20000-replication noise.
    from maxproj.limits import quantile_stderr
    from reference_tables import TABLE1

    reps = 60_000
    for n in (20, 100):
        cfg = RunConfig(
            d=3, n=(n,), betas=(1, 2, 3, 4, 5, 6),
            null_replications=reps, seed=1001, workers=WORKERS,
        )
        nulls = simulate_null(cfg, n, competitors=False)
        for beta, target in zip(range(1, 7), TABLE1[3][n]):
            values = nulls[f"T{beta}"]
            q = float(np.quantile(values, 0.95))
            se_ours = quantile_stderr(values, 0.95)
            se_published = se_ours * math.sqrt(reps / 20_000)
            tol = 3.0 * math.hypot(se_ours, se_published)
            assert abs(q - target) <= tol, f"n={n} beta={beta}: {q:.3f} vs {target}"


# --- level of every statistic at its own critical value ---------------------------


@pytest.mark.acceptance
def test_level_of_full_battery(nulls_d2_n100, nulls_d3_n100):
    for d, nulls in ((2, nulls_d2_n100), (3, nulls_d3_n100)):
        critvals = {name: critical_value(v, 0.05, name) for name, v in nulls.items()}
        cfg = RunConfig(
            d=d,
            n=(100,),
            betas=(1, 2, 3, 4, 5, 6),
            null_replications=5000,
            seed=SEED_SIZE,
            workers=WORKERS,
        )
        draws = simulate_null(cfg, 100, competitors=True)
        rates = rejection_rates(draws, critvals)
        for name, rate in rates.items():
            assert 0.04 <= rate <= 0.06, f"d={d} {name}: size {rate:.4f}"
