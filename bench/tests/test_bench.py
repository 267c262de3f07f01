"""Tests of the benchmark's own code: contract, tracing, aggregation, comparator.

    python3 -m pytest bench/tests -q
"""

import csv
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import compare
import run
import tracing
from workloads import CATALOGUE_BELOW_CUT, CATALOGUE_KEPT, MIN_DIAMETER, SLOTS, WORKLOADS, write_catalogue

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# metric names and the declared contract


def test_benchmark_json_shape(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["command"] == ["python3", "bench/run.py"]
    assert spec["paths"] == ["bench"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in spec["end_to_end"])}]


def test_metric_names_are_valid_and_unique(spec):
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer") for m in spec[group]]
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert len(names) == len(set(names))
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("lower", "higher")


def test_declared_metrics_are_the_emitted_ones(spec):
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_declared_workloads_are_the_defined_ones(spec):
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()}


def test_every_slot_has_a_reference():
    missing = [(name, slot) for name, w in WORKLOADS.items() for slot in range(SLOTS)
               if not w.reference_path(slot).is_file()]
    assert not missing


# ---------------------------------------------------------------------------
# aggregation


def test_self_time_subtracts_direct_children():
    spans = [
        tracing.Span("root", -1, 0.0, 10.0),
        tracing.Span("a", 0, 1.0, 4.0),
        tracing.Span("b", 1, 2.0, 3.0),
        tracing.Span("a", 0, 5.0, 6.0),
    ]
    agg = tracing.aggregate(spans)
    assert agg["root"] == {"calls": 1, "total_s": 10.0, "self_s": 6.0}
    assert agg["a"] == {"calls": 2, "total_s": 4.0, "self_s": 3.0}
    assert agg["b"] == {"calls": 1, "total_s": 1.0, "self_s": 1.0}


def test_tracer_nests_spans():
    tracer = tracing.Tracer()
    outer = tracer.open("outer")
    inner = tracer.open("inner")
    tracer.close(inner)
    tracer.close(outer)
    assert [s.parent for s in tracer.spans] == [-1, outer]
    assert tracer.spans[0].start <= tracer.spans[1].start <= tracer.spans[1].end <= tracer.spans[0].end


def test_patched_counts_replication_layers_and_restores():
    from maxproj import geometry, harness, kernels
    from maxproj.rng import NS_NULL

    originals = (harness.uniform_points, harness.stream, kernels.ZonalKernel.gram)
    task = {"d": 3, "n": 20, "betas": (1, 2, 3, 4), "m": 50, "seed": 5, "ns": (NS_NULL, 20),
            "alt": None, "competitors": False}
    untraced = harness.run_replications(task, 3)
    tracer = tracing.Tracer()
    with tracing.patched(tracer):
        traced = harness.run_replications(task, 3)
        kernels.ZonalKernel(2, 3).gram(geometry.uniform_points(3, 10, 0))
    assert (harness.uniform_points, harness.stream, kernels.ZonalKernel.gram) == originals
    for name in untraced:
        np.testing.assert_array_equal(traced[name], untraced[name])
    metrics = tracing.layer_metrics(tracer)
    assert set(metrics) == set(tracing.SPAN_METRICS)
    assert metrics["geometry.uniform_points.calls"] == 2 * 3 + 1  # sample + cover, then the gram points
    assert metrics["rng.stream.calls"] == 2 * 3 + 1
    assert metrics["statistics.max_projection_values.calls"] == 3
    assert metrics["statistics.max_projection_values.gflop"] == pytest.approx(3 * 2 * 50 * 20 * (3 + 4) / 1e9)
    assert metrics["harness.reps_per_s"] > 0
    assert metrics["kernels.ZonalKernel.gram.bytes"] == 8 * 10 * 10
    assert metrics["samplers.sample.calls"] == 0


def test_result_line_counts_failures_and_keeps_json_finite():
    line = run.result_line(2, 1, {"x": math.inf, "y": 0.5}, {"x": "ratio", "y": "s"})
    assert line["correct"] is False and line["attempted"] == 2 and line["failed"] == 1
    assert line["metrics"]["y"] == {"value": 0.5, "unit": "s"}
    assert math.isfinite(json.loads(json.dumps(line))["metrics"]["x"]["value"])


def test_repeat_for_runs_once_and_stops_before_overrunning():
    calls = []
    run.repeat_for(1e-9, lambda: calls.append(1))
    assert len(calls) == 1
    calls.clear()
    run.repeat_for(0.05, lambda: calls.append(1))
    assert 1 < len(calls)


# ---------------------------------------------------------------------------
# comparator

REF = b"statistic,value,seed\nT1,0.125,3\nT2,2.5,3\n"


def test_identical_bytes_pass():
    cmp = compare.compare_csv(REF, REF)
    assert cmp.identical and cmp.ok and cmp.max_rel_dev == 0.0


def test_last_digit_noise_passes_with_its_deviation():
    got = REF.replace(b"2.5,", b"2.5000000000000004,")
    cmp = compare.compare_csv(got, REF)
    assert not cmp.identical and cmp.ok
    assert cmp.max_rel_dev == pytest.approx(4e-16 / 2.5, rel=0.1)


def test_numeric_change_beyond_tolerance_fails():
    cmp = compare.compare_csv(REF.replace(b"0.125", b"0.126"), REF)
    assert not cmp.ok and cmp.max_rel_dev == pytest.approx(0.001 / 0.126)


@pytest.mark.parametrize("got", [
    b"statistic,value\nT1,0.125\nT2,2.5\n",  # header
    REF + b"T3,1.0,3\n",  # row count
    REF.replace(b"T2", b"T9"),  # text cell
    b"\xff\xfe",  # not text
    REF.replace(b"0.125", b"inf"),  # overflow to infinity
    REF.replace(b"0.125", b"nan"),  # not a number
])
def test_structural_differences_fail(got):
    cmp = compare.compare_csv(got, REF)
    assert not cmp.ok and cmp.max_rel_dev == math.inf


def test_rel_dev_handles_nan_inf_and_zero():
    assert compare.rel_dev(math.nan, math.nan) == 0.0
    assert compare.rel_dev(math.nan, 1.0) == math.inf
    assert compare.rel_dev(math.inf, math.inf) == 0.0
    assert compare.rel_dev(math.inf, 1.0) == math.inf
    assert compare.rel_dev(1.0, -math.inf) == math.inf
    assert compare.rel_dev(-math.inf, math.inf) == math.inf
    assert compare.rel_dev(0.0, 0.0) == 0.0
    assert compare.rel_dev(1.0, -1.0) == 2.0


# ---------------------------------------------------------------------------
# workload inputs and the run boundary


def test_catalogue_is_seeded_and_keeps_the_stated_rows(tmp_path):
    from maxproj.harness import ingest

    a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
    write_catalogue(a, 3)
    write_catalogue(b, 3)
    write_catalogue(c, 4)
    assert a.read_bytes() == b.read_bytes() != c.read_bytes()
    with open(a, newline="") as fh:
        diameters = [float(row["diameter_km"]) for row in csv.DictReader(fh)]
    assert sum(d >= MIN_DIAMETER for d in diameters) == CATALOGUE_KEPT
    assert len(diameters) == CATALOGUE_KEPT + CATALOGUE_BELOW_CUT
    _, report = ingest(a, min_diameter=MIN_DIAMETER)
    assert (report.rows_read, report.rows_kept, report.rows_skipped) == (len(diameters), CATALOGUE_KEPT, 0)


def test_workload_argv_pins_seed_workers_and_output():
    argv = WORKLOADS["test_catalogue"].argv(7, "out.csv", 2, data_path="cat.csv")
    assert argv[0] == "test"
    assert argv[-8:] == ["--data", "cat.csv", "--seed", "7", "--workers", "2", "--out", "out.csv"]


def test_commands_run_single_threaded_blas():
    env = run.child_env()
    assert {k: env[k] for k in run.THREAD_VARS} == dict.fromkeys(run.THREAD_VARS, "1")


def test_run_refuses_a_directory_without_the_sources(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in (ROOT / "bench").glob("*.py"):
        (tmp_path / "bench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    res = subprocess.run([sys.executable, "bench/run.py", "--workload", "critvals_d3", "--seed", "0",
                          "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                         text=True, timeout=60)
    assert res.returncode != 0
    assert res.stdout == ""
