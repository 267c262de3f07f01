"""Monte Carlo orchestration: critical values, power tables, data testing.

Replication r of any simulation derives its random streams from
``(master_seed, namespace, r, substream)``, so results are independent of how
replications are distributed over worker processes and identical runs produce
byte-identical output files.  Null samples are uniform draws and alternative
samples :func:`~maxproj.samplers.sample` draws.  Every cover is a
:func:`~maxproj.geometry.make_cover` draw from its own stream: one fresh cover
per replication, and for an observed dataset its own seeded cover, recorded
in the output.

Each command hands all of its simulations to :func:`run_jobs` at once, so it
forks at most one worker pool.  The samplers run on numpy alone, and so does
the competitor battery up to d = 3; from
:data:`~maxproj.statistics.SCIPY_FROM_DIM` on, the parent process imports
``scipy.special`` for it before the pool forks.

Each replication scores :func:`~maxproj.statistics.evaluate_battery`; critical
values and p-values (with the +1/(R+1) correction) reject in the tail that
:data:`~maxproj.statistics.LOWER_TAIL` sets for each statistic.
"""

import csv
import io
import json
import math
import numbers
import operator
from collections.abc import Iterable
from dataclasses import dataclass, replace
from multiprocessing import get_context

import numpy as np

from . import __version__
from ._errors import DataError, InputError, check_dimension, check_integer, usable_workers
from .bahadur import STUDY_DIMS, are_table
from .geometry import latlon_to_unit, make_cover, normalize_rows, uniform_points
from .limits import check_harmonic_route, limit_quantile, quantile_stderr
from .rng import NS_NULL, NS_POWER, NS_TEST, stream
from .samplers import parse_alternative, sample
from .statistics import LOWER_TAIL, SCIPY_FROM_DIM, cover_powers, evaluate_battery

#: sample-size tokens of the limiting distribution and the route that simulates it
LIMIT_TOKENS = {"inf": "kernel", "inf*": "harmonic"}


def default_cover_m(d):
    """Cover sizes of the study protocol: 5000 for d <= 3, 20000 above."""
    return 5000 if d <= 3 else 20000


def default_limit_cover_m(d):
    """Limit-field cover sizes of the simulation study: 1000 for d <= 3, 5000 above."""
    return 1000 if d <= 3 else 5000


# ---------------------------------------------------------------------------
# replication engine


def _replicate_one(task, r):
    d, n, seed, ns, alt = task["d"], task["n"], task["seed"], task["ns"], task.get("alt")
    rng = stream(seed, *ns, r, 0)
    x = uniform_points(d, n, rng) if alt is None else sample(alt, n, rng)
    cover = (make_cover(d, task["m"], stream(seed, *ns, r, 1))
             if cover_powers(task["betas"]) else None)
    rng_ca = stream(seed, *ns, r, 2) if task["competitors"] else None
    return evaluate_battery(x, task["betas"], cover_points=cover, rng_ca=rng_ca)


def _worker_chunk(args):
    task, r_start, r_stop = args
    rows = [_replicate_one(task, r) for r in range(r_start, r_stop)]
    names = sorted(rows[0])
    return r_start, names, np.array([[row[k] for k in names] for row in rows])


def run_jobs(jobs, workers=1):
    """Replication loops of several ``(task, replications)`` jobs on one pool.

    Returns one name -> array dict per job, in job order.  Each job is split
    into chunks of ``max(64, ceil(replications / (4 workers)))``
    replications, and the chunks of all jobs share one fork pool of at most
    one worker per usable CPU and per chunk.  If a job scores the competitor
    battery at d >= :data:`~maxproj.statistics.SCIPY_FROM_DIM`, which calls
    ``scipy.special``, the parent imports it before the pool forks, so that
    the workers share that one import.  The values do not depend on the
    number of workers.
    """
    workers = usable_workers(workers)
    chunks, owners = [], []
    for index, (task, replications) in enumerate(jobs):
        check_integer(replications, 1, "replications")
        step = max(64, math.ceil(replications / max(1, 4 * workers)))
        for start in range(0, replications, step):
            chunks.append((task, start, min(start + step, replications)))
            owners.append(index)
    if workers <= 1 or len(chunks) <= 1:
        results = [_worker_chunk(c) for c in chunks]
    else:
        if any(task["competitors"] and task["d"] >= SCIPY_FROM_DIM for task, _ in jobs):
            # import it once here, so that the forked workers share it
            # instead of each importing it
            import scipy.special  # noqa: F401
        with get_context("fork").Pool(processes=min(workers, len(chunks))) as pool:
            results = pool.map(_worker_chunk, chunks, chunksize=1)
    outs = [None] * len(jobs)
    for index, (start, names, block) in zip(owners, results):
        if outs[index] is None:
            outs[index] = names, np.empty((jobs[index][1], len(names)))
        outs[index][1][start : start + block.shape[0]] = block
    return [{name: out[:, j] for j, name in enumerate(names)} for names, out in outs]


def run_replications(task, replications, workers=1):
    """Replication loop of one task; returns name -> array of length ``replications``."""
    return run_jobs([(task, replications)], workers)[0]


# ---------------------------------------------------------------------------
# tables


@dataclass
class RunConfig:
    """Settings of a harness run, with the study protocol as defaults.

    This class holds every default the CLI uses: each option of the
    simulation subcommands fills one field, and a field no option sets keeps
    the value written here.  ``cover_m`` and ``null_replications`` also size
    the limit-field simulation of :func:`cmd_limit` and of the ``inf``/``inf*``
    rows, where ``cover_m=None`` stands for :func:`default_limit_cover_m`.
    ``workers`` bounds the worker processes of the replication loops and the
    threads of that simulation's field draws, each capped at the usable CPUs;
    every ``mc_stderr`` bootstrap runs on the calling thread, and no output
    depends on ``workers``.  ``n`` and ``betas`` are sequences; repeated
    sample sizes and powers are dropped, keeping the first of each in order,
    so that no row or simulation is repeated.  Every count must be an integer
    (numpy's too) at or above its minimum, checked by
    :func:`~maxproj._errors.check_integer`: 2 for ``d``, 0 for ``seed`` and 1
    for ``cover_m``, the replications, ``workers``, each power and finite n.
    ``alpha`` and ``min_diameter`` must be real numbers.  Any other value
    raises :class:`~maxproj._errors.InputError`.
    """

    d: int = 2
    n: tuple = (100,)
    betas: tuple = (1, 2, 3, 4, 5, 6)
    alpha: float = 0.05
    cover_m: int = None
    null_replications: int = 20_000
    power_replications: int = 5_000
    seed: int = 20230419
    workers: int = 1
    alternatives: tuple = ("uniform", "vmf:kappa=0.5", "vmf:kappa=1", "mixvmf2:p=0.5",
                           "bing1:kappa=1", "lp:m=3,kappa=1", "lp:m=4,kappa=1")
    min_diameter: float = None
    data: str = None
    limit_method: str = "kernel"

    def __post_init__(self):
        check_dimension(self.d)
        if self.cover_m is not None:
            check_integer(self.cover_m, 1, "cover_m")
        if not (isinstance(self.alpha, numbers.Real) and 0.0 < self.alpha < 1.0):
            raise InputError(f"alpha must lie in (0, 1), got {self.alpha!r}")
        for attr in ("null_replications", "power_replications", "workers"):
            check_integer(getattr(self, attr), 1, attr)
        check_integer(self.seed, 0, "seed")
        if self.min_diameter is not None and not (isinstance(self.min_diameter, numbers.Real)
                                                  and not math.isnan(self.min_diameter)):
            raise InputError(f"min_diameter must be a number, got {self.min_diameter!r}")
        for attr in ("n", "betas"):
            values = getattr(self, attr)
            if isinstance(values, str) or not isinstance(values, Iterable):
                raise InputError(f"{attr} must be a sequence, got {values!r}")
            setattr(self, attr, tuple(values))
        if not self.n:
            raise InputError("no sample size given")
        for n in self.n:
            if isinstance(n, str):
                if n not in LIMIT_TOKENS:
                    raise InputError(f"unknown sample-size token {n!r}")
            else:
                check_integer(n, 1, "sample size")
        if not self.betas:
            raise InputError("no power given")
        for b in self.betas:
            check_integer(b, 1, "power")
        self.n = tuple(dict.fromkeys(self.n))
        self.betas = tuple(dict.fromkeys(self.betas))

    @property
    def m(self):
        return self.cover_m if self.cover_m is not None else default_cover_m(self.d)


def _task(config, n, ns, alt=None, competitors=False):
    """Replication task: ``n``-point samples from ``alt`` (None: uniform), streams ``ns``.

    Replication r draws its sample from ``(seed, *ns, r, 0)`` and, when a
    power is 3 or more, its cover by :func:`make_cover` from ``(seed, *ns, r, 1)``.
    """
    return {"d": config.d, "n": n, "betas": tuple(config.betas), "m": config.m,
            "seed": config.seed, "ns": ns, "alt": alt, "competitors": competitors}


def _null_job(config, n, competitors=False):
    """Null-simulation job of sample size ``n`` for :func:`run_jobs`."""
    return _task(config, n, (NS_NULL, n), competitors=competitors), config.null_replications


def simulate_null(config, n, competitors=False):
    return run_replications(*_null_job(config, n, competitors), config.workers)


def _with_provenance(rows, config):
    """Append the ``seed`` and ``tool_version`` columns, last in every row."""
    for row in rows:
        row["seed"] = config.seed
        row["tool_version"] = __version__
    return rows


def _level(name, alpha):
    """Quantile level of the critical value of statistic ``name`` at test level ``alpha``."""
    return alpha if name in LOWER_TAIL else 1.0 - alpha


def critical_value(null_values, alpha, name):
    return float(np.quantile(null_values, _level(name, alpha)))


def cmd_critvals(config):
    """Null critical values for each requested (n, statistic) cell.

    ``n`` entries may be integers or the tokens ``inf`` (covariance route) and
    ``inf*`` (harmonics route) for the limiting distribution.
    """
    if "inf*" in config.n:
        # fail before the finite-n replications, not after them
        check_harmonic_route(config.d, config.betas)
    finite = [n for n in config.n if not isinstance(n, str)]
    nulls = dict(zip(finite, run_jobs([_null_job(config, n) for n in finite], config.workers)))
    rows = []
    for n in config.n:
        if isinstance(n, str):
            cells = _limit_cells(config, LIMIT_TOKENS[n])
        else:
            cells = [(name, critical_value(values, config.alpha, name),
                      quantile_stderr(values, _level(name, config.alpha)),
                      config.null_replications, config.m)
                     for name, values in nulls[n].items()]
        rows += [{"d": config.d, "n": n, "statistic": name, "alpha": config.alpha,
                  "critical_value": cv, "mc_stderr": stderr, "replications": replications,
                  "cover_m": m}
                 for name, cv, stderr, replications, m in cells]
    return _with_provenance(rows, config)


def rejection_rates(stats, critvals):
    """Share of each statistic's values in its rejection tail beyond ``critvals[name]``."""
    return {name: float(np.mean(values <= critvals[name] if name in LOWER_TAIL
                                else values > critvals[name]))
            for name, values in stats.items()}


def cmd_power(config):
    """Rejection frequencies for each alternative at MC critical values."""
    if not config.alternatives:
        raise InputError("no alternatives requested; pass at least one spec string")
    if len(config.n) != 1 or isinstance(config.n[0], str):
        raise InputError("power tables use exactly one finite sample size")
    n = config.n[0]
    alternatives = [parse_alternative(alt_text, config.d) for alt_text in config.alternatives]
    jobs = [_null_job(config, n, competitors=True)]
    jobs += [(_task(config, n, (NS_POWER, a_idx), spec, competitors=True),
              config.power_replications) for a_idx, (_, spec) in enumerate(alternatives)]
    nulls, *alt_stats = run_jobs(jobs, config.workers)
    critvals = {name: critical_value(v, config.alpha, name) for name, v in nulls.items()}
    rows = []
    for (label, _), stats in zip(alternatives, alt_stats):
        rates = rejection_rates(stats, critvals)
        for name in sorted(rates):
            p = rates[name]
            rows.append(
                {
                    "d": config.d,
                    "n": n,
                    "alternative": label,
                    "statistic": name,
                    "power": p,
                    "mc_stderr": math.sqrt(max(p * (1.0 - p), 1e-12) / config.power_replications),
                    "power_replications": config.power_replications,
                    "null_replications": config.null_replications,
                    "alpha": config.alpha,
                }
            )
    return _with_provenance(rows, config)


def mc_pvalue(null_values, observed, name):
    """(r + 1) / (R + 1) Monte Carlo p-value in the rejection tail of statistic ``name``."""
    null_values = np.asarray(null_values)
    r = np.sum(null_values <= observed) if name in LOWER_TAIL else np.sum(null_values >= observed)
    return float((r + 1) / (null_values.shape[0] + 1))


def cmd_test(config):
    """Statistics and Monte Carlo p-values for an observed dataset."""
    if config.data is None:
        raise InputError("no data file given")
    x, report = ingest(config.data, min_diameter=config.min_diameter)
    n, d = x.shape
    null_config = replace(config, d=d, n=(n,))
    cover = (make_cover(d, null_config.m, stream(config.seed, NS_TEST, 0))
             if cover_powers(config.betas) else None)
    observed = evaluate_battery(x, config.betas, cover_points=cover)
    nulls = simulate_null(null_config, n)
    rows = []
    for name in sorted(observed):
        rows.append(
            {
                "statistic": name,
                "d": d,
                "n": n,
                "value": observed[name],
                "pvalue": mc_pvalue(nulls[name], observed[name], name),
                "null_replications": config.null_replications,
                "cover_m": null_config.m,
                "cover_seed": config.seed,
                "rows_read": report.rows_read,
                "rows_kept": report.rows_kept,
                "rows_repaired": report.rows_repaired,
                "rows_skipped": report.rows_skipped,
            }
        )
    return _with_provenance(rows, config)


def _limit_cells(config, method):
    """``(statistic, quantile, mc_stderr, replications, cover_m)`` of each power's limit row.

    The quantile is the ``1 - alpha`` quantile of the limit field's maximum,
    simulated by ``method`` on a cover of ``cover_m`` directions.
    """
    m = config.cover_m if config.cover_m is not None else default_limit_cover_m(config.d)
    cells = []
    for beta in config.betas:
        value, stderr, _ = limit_quantile(beta, config.d, 1.0 - config.alpha, method, m,
                                          config.null_replications, seed=config.seed,
                                          workers=config.workers)
        cells.append((f"T{beta}", value, stderr, config.null_replications, m))
    return cells


def cmd_limit(config):
    if config.limit_method == "harmonic":
        check_harmonic_route(config.d, config.betas)
    rows = [{"d": config.d, "statistic": name, "alpha": config.alpha,
             "method": config.limit_method, "quantile": value, "mc_stderr": stderr,
             "replications": replications, "cover_m": m}
            for name, value, stderr, replications, m in _limit_cells(config, config.limit_method)]
    return _with_provenance(rows, config)


def cmd_bahadur(dims=STUDY_DIMS):
    rows = []
    for row in are_table(dims=dims):
        out = {"alternative": row["alternative"], "beta": row["beta"]}
        for d in dims:
            out[f"d={d}"] = round(row[f"d={d}"], 2 if row[f"d={d}"] >= 0.005 else 3)
        out["tool_version"] = __version__
        rows.append(out)
    return rows


# ---------------------------------------------------------------------------
# ingestion


@dataclass
class IngestReport:
    rows_read: int = 0
    rows_kept: int = 0
    rows_repaired: int = 0
    rows_skipped: int = 0
    rows_filtered: int = 0
    schema: str = ""


def ingest(path, min_diameter=None):
    """Read a CSV of directions; returns the ``(n, d)`` array and an :class:`IngestReport`.

    Accepted schemas (by header): ``lat,lon`` in degrees (d = 3), or
    coordinate columns ``x1..xd``.  An optional ``diameter_km`` column
    supports ``min_diameter`` filtering, which also drops a row whose diameter
    is NaN; the column is read only under that filter.  Slightly off-sphere
    coordinate rows are renormalized and counted; rows that cannot be
    repaired are skipped.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            text = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"{path}: empty file") from None
    cols = [c.strip().lower() for c in header]
    report = IngestReport()
    if "lat" in cols and "lon" in cols:
        report.schema = "latlon"
        idx = (cols.index("lat"), cols.index("lon"))
    else:
        coord_idx = []
        k = 1
        while f"x{k}" in cols:
            coord_idx.append(cols.index(f"x{k}"))
            k += 1
        if len(coord_idx) >= 2:
            report.schema = f"x1..x{len(coord_idx)}"
            idx = tuple(coord_idx)
        else:
            raise DataError(f"{path}: unknown schema {header!r}; accepted: lat,lon or x1..xd")
    diam_idx = None
    if min_diameter is not None:
        if "diameter_km" not in cols:
            raise DataError(f"{path}: no diameter_km column for the diameter filter")
        diam_idx = cols.index("diameter_km")
    raw = []
    for line_no, row in enumerate(reader, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        report.rows_read += 1
        try:
            vals = [float(row[i]) for i in idx]
            diam = float(row[diam_idx]) if diam_idx is not None else None
        except (ValueError, IndexError) as exc:
            raise DataError(f"{path}:{line_no}: cannot parse row: {exc}") from None
        if min_diameter is not None and not diam >= min_diameter:  # NaN is filtered
            report.rows_filtered += 1
            continue
        raw.append((line_no, vals))
    if not raw:
        raise DataError(f"{path}: no usable rows")
    if report.schema == "latlon":
        pts = []
        for line_no, (lat, lon) in raw:
            try:
                pts.append(latlon_to_unit(lat, lon))
            except InputError as exc:
                raise DataError(f"{path}:{line_no}: {exc}") from None
        arr = np.array(pts)
        report.rows_kept = arr.shape[0]
        return arr, report
    arr = np.array([v for _, v in raw])
    unit, repaired, bad = normalize_rows(arr)
    report.rows_repaired = int(repaired.sum())
    report.rows_skipped = int(bad.sum())
    keep = ~bad
    if not keep.any():
        raise DataError(f"{path}: every row failed unit-norm repair")
    report.rows_kept = int(keep.sum())
    return unit[keep], report


# ---------------------------------------------------------------------------
# output


def write_rows(rows, fmt="csv", path=None):
    """Serialize row dicts; returns the text when ``path`` is None."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()), lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _fmt_cell(v) for k, v in row.items()})
        text = buf.getvalue()
    elif fmt == "json":
        text = json.dumps(rows, indent=2, sort_keys=True, default=operator.index) + "\n"
    else:
        raise InputError(f"unknown output format {fmt!r}")
    if path is None:
        return text
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror or exc}") from None
    return None


def _fmt_cell(v):
    if isinstance(v, float):
        return repr(float(v))  # shortest round-trip form, also for numpy scalars
    return v
