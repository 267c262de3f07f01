"""maxproj benchmark: one workload, measured end to end or traced per layer.

    python3 bench/run.py --workload critvals_d3 --seed 3 --seconds 30 --trace 0

Run from any directory; the package is taken from ``src/`` next to this
directory, never from an installed copy.

Every BLAS and OpenMP thread variable is set to 1 when this module is
imported, before numpy is, so the commands (two workers each) and the
in-process calls never run more compute threads than the two cores the
sizes were chosen on.  Left at their defaults, two forked workers with two
BLAS threads each oversubscribe the cores, and the time then depends on
the scheduler more than on the program.

``--trace 0`` runs the workload's ``maxproj`` command in fresh processes
for about ``--seconds`` seconds, each after one fresh ``maxproj --help``
process.  It reports the median ``wall_s``, ``cpu_s`` and ``peak_rss_mb``
over the commands, read from the rusage the kernel returns when it reaps
each command (its share of ``RUSAGE_CHILDREN``), and ``setup_s``, the median
time of the ``--help`` processes (at least ``SETUP_PROCESSES`` of them).

``--trace 1`` runs the command once, then the same work in-process with
``workers=1`` through ``maxproj.cli.main``: a warm-up call, then untraced and
traced calls (spans from ``tracing.py``) in alternating order, at least one
of each, so such a run can take several times ``--seconds``.  It reports
the per-layer metrics.

Every output is compared with the reference recorded for the seed's input
slot (``compare.py``); the in-process outputs must also equal the command's
bytes, which checks the worker-count contract.  The last stdout line is the
result JSON; the line before it, and ``.bench_build/BENCH_*.json``, hold the
details and the provenance.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter

import compare
import tracing
from workloads import CLI_WORKERS, SLOTS, WORKLOADS, write_catalogue

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build"

SETUP_PROCESSES = 5
OP_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
os.environ.update(dict.fromkeys(THREAD_VARS, "1"))

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
RUN_LAYER_METRICS = {
    "inprocess.wall_s": "s",
    "trace.overhead_frac": "ratio",
    "failed_frac": "ratio",
    "output_max_rel_dev": "ratio",
}
PER_LAYER = {**{k: unit for k, (unit, _) in tracing.SPAN_METRICS.items()}, **RUN_LAYER_METRICS}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# processes


@dataclass
class Op:
    kind: str
    returncode: int
    wall_s: float
    ok: bool = False
    max_rel_dev: float = 0.0
    reason: str = ""
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_process(argv):
    """Run ``argv`` to completion as a command ``Op``; time it, read its rusage from ``wait4``.

    A nonzero exit or a traceback on stderr sets the op's ``reason``.
    """
    err_path = WORK / "stderr.txt"
    with open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err,
                                env=child_env(), cwd=ROOT)
        killer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    op = Op("command", proc.returncode, wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss / 1024.0)  # ru_maxrss is in KiB on Linux
    stderr = err_path.read_text(errors="replace")
    if op.returncode != 0 or "Traceback (most recent call last)" in stderr:
        op.reason = f"exit code {op.returncode}, stderr ends {stderr[-300:]!r}"
    return op


def maxproj_argv(*args):
    return [sys.executable, "-m", "maxproj.cli", *args]


def time_setup():
    """Wall time of one fresh ``maxproj --help`` process."""
    op = run_process(maxproj_argv("--help"))
    if op.reason:
        raise BenchError(f"maxproj --help failed: {op.reason}")
    return op.wall_s


def repeat_for(seconds, op):
    """Run ``op`` once, then again while the next run should end within ``seconds``."""
    start = perf_counter()
    durations = []
    while True:
        t0 = perf_counter()
        op()
        durations.append(perf_counter() - t0)
        if perf_counter() - start + statistics.median(durations) > seconds:
            return


# ---------------------------------------------------------------------------
# one operation and its check


def check_output(op, out_path, reference, expected=None):
    """Mark ``op`` ok when it exited cleanly and its output matches the reference."""
    if op.reason:  # already failed: a nonzero exit, a traceback or an exception
        return None
    if op.returncode != 0:
        op.reason = f"exit code {op.returncode}"
        return None
    if not out_path.is_file():
        op.reason = "no output file"
        return None
    got = out_path.read_bytes()
    if reference is None:
        op.reason = "no reference recorded for this slot"
        return got
    cmp = compare.compare_csv(got, reference)
    op.max_rel_dev = cmp.max_rel_dev
    if not cmp.ok:
        op.reason = f"differs from reference: {cmp.detail}, max rel dev {cmp.max_rel_dev:.3g}"
    elif expected is not None and got != expected:
        op.reason = "in-process bytes differ from the command's bytes"
    else:
        op.ok = True
    return got


def run_command(workload, slot, data_path, reference):
    out_path = WORK / f"out_{workload.name}.csv"
    out_path.unlink(missing_ok=True)
    op = run_process(maxproj_argv(*workload.argv(slot, out_path, CLI_WORKERS, data_path)))
    got = check_output(op, out_path, reference)
    return op, got


def run_inprocess(cli, workload, slot, data_path, reference, expected, tracer=None):
    out_path = WORK / f"out_{workload.name}_inprocess.csv"
    out_path.unlink(missing_ok=True)
    argv = workload.argv(slot, out_path, 1, data_path)
    start = perf_counter()
    reason = ""
    try:
        if tracer is None:
            rc = cli.main(argv)
        else:
            with tracing.patched(tracer):
                rc = cli.main(argv)
    except (Exception, SystemExit):
        rc, reason = -1, traceback.format_exc(limit=-3)
    op = Op("traced" if tracer else "untraced", rc, perf_counter() - start, reason=reason)
    check_output(op, out_path, reference, expected)
    return op


# ---------------------------------------------------------------------------
# the two kinds of run


def prepare(workload, slot):
    WORK.mkdir(exist_ok=True)
    data_path = None
    if workload.needs_catalogue:
        data_path = WORK / f"catalogue_slot{slot:02d}.csv"
        write_catalogue(data_path, slot)
    ref_path = workload.reference_path(slot)
    reference = ref_path.read_bytes() if ref_path.is_file() else None
    return data_path, reference


def untraced_run(workload, slot, seconds):
    data_path, reference = prepare(workload, slot)
    time_setup()  # the first process also writes the bytecode caches
    setup_times, ops = [], []

    def step():
        # interleaved, so set-up is sampled across the run like the commands
        setup_times.append(time_setup())
        ops.append(run_command(workload, slot, data_path, reference)[0])

    repeat_for(seconds, step)
    while len(setup_times) < SETUP_PROCESSES:
        setup_times.append(time_setup())
    metrics = {
        "wall_s": statistics.median(op.wall_s for op in ops),
        "cpu_s": statistics.median(op.cpu_s for op in ops),
        "peak_rss_mb": statistics.median(op.peak_rss_mb for op in ops),
        "setup_s": statistics.median(setup_times),
    }
    return ops, metrics, {"setup_runs_s": setup_times}


def import_cli():
    sys.path.insert(0, str(SRC))
    import maxproj.cli

    where = Path(maxproj.cli.__file__).resolve().parent
    if where != SRC / "maxproj":
        raise BenchError(f"imported maxproj from {where}, expected {SRC / 'maxproj'}")
    return maxproj.cli


def traced_run(workload, slot, seconds):
    data_path, reference = prepare(workload, slot)
    command, command_bytes = run_command(workload, slot, data_path, reference)
    ops = [command]
    cli = import_cli()
    # the first in-process call also pays one-time costs (BLAS threads, caches)
    warm_up = run_inprocess(cli, workload, slot, data_path, reference, command_bytes)
    warm_up.kind = "warm-up"
    ops.append(warm_up)
    tracers = []

    def pair():
        # alternate which side runs first, so warm caches favour neither
        order = ("untraced", "traced") if len(tracers) % 2 == 0 else ("traced", "untraced")
        for kind in order:
            tracer = tracing.Tracer() if kind == "traced" else None
            ops.append(run_inprocess(cli, workload, slot, data_path, reference,
                                     command_bytes, tracer))
            if tracer is not None:
                tracers.append(tracer)

    repeat_for(seconds, pair)
    per_call = [tracing.layer_metrics(t) for t in tracers]
    metrics = {name: statistics.median(m[name] for m in per_call) for name in tracing.SPAN_METRICS}
    untraced = statistics.median(op.wall_s for op in ops if op.kind == "untraced")
    traced = statistics.median(op.wall_s for op in ops if op.kind == "traced")
    metrics["inprocess.wall_s"] = untraced
    metrics["trace.overhead_frac"] = (traced - untraced) / untraced
    spans_path = WORK / f"spans_{workload.name}.json"
    spans_path.write_text(json.dumps(
        [[call, s.name, s.parent, s.start, s.end]
         for call, t in enumerate(tracers) for s in t.spans]))
    return ops, metrics, {"command_wall_s": command.wall_s, "spans_file": spans_path.name}


# ---------------------------------------------------------------------------
# provenance and result


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "maxproj").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(seed, slot):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
        "slot": slot,
    }


def result_line(attempted, failed, metrics, units):
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        # JSON has no infinity; a structural output mismatch reads as the largest float
        "metrics": {name: {"value": min(metrics[name], sys.float_info.max), "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "maxproj" / "cli.py").is_file():
        print(f"bench: no maxproj sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    slot = args.seed % SLOTS
    try:
        if args.trace:
            ops, metrics, extra = traced_run(workload, slot, args.seconds)
        else:
            ops, metrics, extra = untraced_run(workload, slot, args.seconds)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    attempted = len(ops)
    failed = sum(not op.ok for op in ops)
    if args.trace:
        metrics["failed_frac"] = failed / attempted
        metrics["output_max_rel_dev"] = max(op.max_rel_dev for op in ops)
    units = PER_LAYER if args.trace else END_TO_END
    detail = {
        "workload": workload.name,
        "trace": args.trace,
        "seconds": args.seconds,
        "failed_frac": failed / attempted,
        "output_max_rel_dev": max(op.max_rel_dev for op in ops),
        "ops": [asdict(op) for op in ops],
        **extra,
        "provenance": provenance(args.seed, slot),
    }
    result = result_line(attempted, failed, metrics, units)
    detail["result"] = result
    suffix = "_trace" if args.trace else ""
    (WORK / f"BENCH_{workload.name}_seed{args.seed}{suffix}.json").write_text(
        json.dumps(detail, indent=1, default=str) + "\n")
    print(json.dumps(detail, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
