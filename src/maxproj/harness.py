"""Monte Carlo orchestration: critical values, power tables, data testing.

Replication r of any simulation derives its random streams from
``(master_seed, namespace, r, substream)``, so results are independent of how
replications are distributed over worker processes and identical runs produce
byte-identical output files.  Null simulations draw one fresh direction cover
per replication; the statistic of an observed dataset uses its own seeded
cover, recorded in the output.

Statistics with an upper rejection tail use the (1 - alpha) null quantile as
critical value; the random-projection test rejects below its alpha-quantile.
Monte Carlo p-values carry the +1/(R+1) finite-sample correction.
"""

import csv
import io
import json
import math
import numbers
from dataclasses import dataclass
from multiprocessing import get_context

import numpy as np

from . import __version__
from ._errors import DataError, InputError
from .geometry import SphericalSample, latlon_to_unit, normalize_rows, uniform_points
from .limits import limit_quantile, quantile_stderr
from .rng import NS_NULL, NS_POWER, NS_TEST, stream
from .samplers import parse_alternative, sample
from .statistics import (
    ca_statistic,
    circle_classical,
    cvm_statistic,
    max_projection_values,
    sphere_sobolev,
    t1_closed,
    t2_closed,
)

#: statistics whose small values are significant
LOWER_TAIL = {"ca25", "ca100"}

#: sample-size tokens of the limiting distribution and the route that simulates it
LIMIT_TOKENS = {"inf": "kernel", "inf*": "harmonic"}


def default_cover_m(d):
    """Cover sizes of the study protocol: 5000 for d <= 3, 20000 above."""
    return 5000 if d <= 3 else 20000


def battery_names(d, betas):
    names = [f"T{b}" for b in sorted(betas)]
    if d == 2:
        names += ["kuiper", "watson_u2", "ajne", "rayleigh_mod", "ca25"]
    else:
        names += ["ajne", "rayleigh_mod", "bingham", "gine", "ca100", "cvm"]
    return names


def evaluate_battery(x, betas, cover_points=None, rng_ca=None, competitors=True):
    """All statistics of the battery on one sample; returns name -> value."""
    n, d = x.shape
    vals = {}
    betas = sorted(set(betas))
    cover_betas = [b for b in betas if b > 2]
    if 1 in betas:
        vals["T1"] = t1_closed(x)
    if 2 in betas:
        vals["T2"] = t2_closed(x)
    if cover_betas:
        if cover_points is None:
            raise InputError("cover required for powers beta >= 3")
        res = max_projection_values(x, cover_betas, cover_points)
        vals.update({f"T{b}": v for b, v in res.items()})
    if not competitors:
        return vals
    if d == 2:
        vals.update(circle_classical(x))
        vals["ca25"] = ca_statistic(x, 25, rng_ca)
    else:
        vals.update(sphere_sobolev(x))
        vals["ca100"] = ca_statistic(x, 100, rng_ca)
        vals["cvm"] = cvm_statistic(x)
    return vals


# ---------------------------------------------------------------------------
# replication engine


def _replicate_one(task, r):
    d, n = task["d"], task["n"]
    seed = task["seed"]
    ns = task["ns"]
    alt = task.get("alt")
    x = (
        uniform_points(d, n, stream(seed, *ns, r, 0))
        if alt is None
        else sample(alt, n, stream(seed, *ns, r, 0))
    )
    cover = None
    if any(b > 2 for b in task["betas"]):
        cover = uniform_points(d, task["m"], stream(seed, *ns, r, 1))
    rng_ca = stream(seed, *ns, r, 2) if task["competitors"] else None
    return evaluate_battery(
        x,
        task["betas"],
        cover_points=cover,
        rng_ca=rng_ca,
        competitors=task["competitors"],
    )


def _worker_chunk(args):
    task, r_start, r_stop = args
    rows = [_replicate_one(task, r) for r in range(r_start, r_stop)]
    names = sorted(rows[0])
    return r_start, names, np.array([[row[k] for k in names] for row in rows])


def run_replications(task, replications, workers=1):
    """Replication loop; returns name -> array of length ``replications``."""
    chunks = []
    step = max(64, math.ceil(replications / max(1, 4 * workers)))
    for start in range(0, replications, step):
        chunks.append((task, start, min(start + step, replications)))
    if workers <= 1 or len(chunks) == 1:
        results = [_worker_chunk(c) for c in chunks]
    else:
        with get_context("fork").Pool(processes=workers) as pool:
            results = pool.map(_worker_chunk, chunks)
    names = results[0][1]
    out = np.empty((replications, len(names)))
    for start, _, block in results:
        out[start : start + block.shape[0]] = block
    return {name: out[:, j] for j, name in enumerate(names)}


# ---------------------------------------------------------------------------
# tables


@dataclass
class RunConfig:
    """Knobs of a harness run; defaults mirror the study protocol."""

    d: int = 2
    n: tuple = (100,)
    betas: tuple = (1, 2, 3, 4, 5, 6)
    alpha: float = 0.05
    cover_m: int = None
    null_replications: int = 20_000
    power_replications: int = 5_000
    seed: int = 20230419
    workers: int = 1
    alternatives: tuple = ()
    min_diameter: float = None
    data: str = None
    limit_method: str = "kernel"
    limit_m: int = None
    limit_replications: int = None

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise InputError("alpha must lie in (0, 1)")
        for attr in ("null_replications", "power_replications", "workers"):
            if getattr(self, attr) < 1:
                raise InputError(f"{attr} must be >= 1")
        if self.seed < 0:
            raise InputError(f"seed must be >= 0, got {self.seed}")
        for n in self.n:
            if isinstance(n, str):
                if n not in LIMIT_TOKENS:
                    raise InputError(f"unknown sample-size token {n!r}")
            elif n < 1:
                raise InputError(f"sample sizes must be >= 1, got {n}")
        if not self.betas or not all(isinstance(b, numbers.Integral) and b >= 1
                                     for b in self.betas):
            raise InputError(f"powers must be integers >= 1, got {list(self.betas)}")

    @property
    def m(self):
        return self.cover_m if self.cover_m is not None else default_cover_m(self.d)


def simulate_null(config, n, competitors=False, betas=None):
    task = {
        "d": config.d,
        "n": int(n),
        "betas": tuple(betas if betas is not None else config.betas),
        "m": config.m,
        "seed": config.seed,
        "ns": (NS_NULL, int(n)),
        "alt": None,
        "competitors": competitors,
    }
    return run_replications(task, config.null_replications, config.workers)


def _with_provenance(rows, config):
    """Append the ``seed`` and ``tool_version`` columns, last in every row."""
    for row in rows:
        row["seed"] = config.seed
        row["tool_version"] = __version__
    return rows


def critical_value(null_values, alpha, name):
    q = alpha if name in LOWER_TAIL else 1.0 - alpha
    return float(np.quantile(null_values, q))


def cmd_critvals(config, competitors=False):
    """Null critical values for each requested (n, statistic) cell.

    ``n`` entries may be integers or the tokens ``inf`` (covariance route) and
    ``inf*`` (harmonics route) for the limiting distribution.
    """
    rows = []
    for n in config.n:
        if isinstance(n, str):
            for beta in config.betas:
                lq = _limit_quantile(config, beta, LIMIT_TOKENS[n])
                rows.append(
                    {
                        "d": config.d,
                        "n": n,
                        "statistic": f"T{beta}",
                        "alpha": config.alpha,
                        "critical_value": lq.value,
                        "mc_stderr": lq.mc_stderr,
                        "replications": lq.replications,
                        "cover_m": lq.m,
                    }
                )
            continue
        nulls = simulate_null(config, n, competitors=competitors)
        for name, values in nulls.items():
            cv = critical_value(values, config.alpha, name)
            rows.append(
                {
                    "d": config.d,
                    "n": int(n),
                    "statistic": name,
                    "alpha": config.alpha,
                    "critical_value": cv,
                    "mc_stderr": quantile_stderr(
                        values, config.alpha if name in LOWER_TAIL else 1.0 - config.alpha
                    ),
                    "replications": config.null_replications,
                    "cover_m": config.m,
                }
            )
    return _with_provenance(rows, config)


def rejection_rates(stats, critvals):
    out = {}
    for name, values in stats.items():
        cv = critvals[name]
        if name in LOWER_TAIL:
            out[name] = float(np.mean(values <= cv))
        else:
            out[name] = float(np.mean(values > cv))
    return out


def cmd_power(config):
    """Rejection frequencies for each alternative at MC critical values."""
    if not config.alternatives:
        raise InputError("no alternatives requested; pass at least one spec string")
    if len(config.n) != 1 or isinstance(config.n[0], str):
        raise InputError("power tables use exactly one finite sample size")
    n = int(config.n[0])
    nulls = simulate_null(config, n, competitors=True)
    critvals = {name: critical_value(v, config.alpha, name) for name, v in nulls.items()}
    rows = []
    for a_idx, alt_text in enumerate(config.alternatives):
        label, spec = parse_alternative(alt_text, config.d)
        task = {
            "d": config.d,
            "n": n,
            "betas": tuple(config.betas),
            "m": config.m,
            "seed": config.seed,
            "ns": (NS_POWER, a_idx),
            "alt": spec,
            "competitors": True,
        }
        stats = run_replications(task, config.power_replications, config.workers)
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


def mc_pvalue(null_values, observed, lower_tail=False):
    """(r + 1) / (R + 1) Monte Carlo p-value in the rejection direction."""
    null_values = np.asarray(null_values)
    r = np.sum(null_values <= observed) if lower_tail else np.sum(null_values >= observed)
    return float((r + 1) / (null_values.shape[0] + 1))


def cmd_test(config):
    """Statistics and Monte Carlo p-values for an observed dataset."""
    if config.data is None:
        raise InputError("no data file given")
    samp, report = ingest(config.data, min_diameter=config.min_diameter)
    x = samp.points
    n, d = x.shape
    cover_seed = config.seed
    cover = uniform_points(d, default_cover_m(d) if config.cover_m is None else config.cover_m,
                           stream(cover_seed, NS_TEST, 0))
    observed = evaluate_battery(x, config.betas, cover_points=cover, competitors=False)
    null_config = RunConfig(
        d=d,
        n=(n,),
        betas=tuple(config.betas),
        cover_m=config.cover_m,
        null_replications=config.null_replications,
        seed=config.seed,
        workers=config.workers,
    )
    nulls = simulate_null(null_config, n, competitors=False)
    rows = []
    for name in sorted(observed):
        rows.append(
            {
                "statistic": name,
                "d": d,
                "n": n,
                "value": observed[name],
                "pvalue": mc_pvalue(nulls[name], observed[name]),
                "null_replications": config.null_replications,
                "cover_m": cover.shape[0],
                "cover_seed": cover_seed,
                "rows_read": report.rows_read,
                "rows_kept": report.rows_kept,
                "rows_repaired": report.rows_repaired,
                "rows_skipped": report.rows_skipped,
            }
        )
    return _with_provenance(rows, config)


def _limit_quantile(config, beta, method):
    return limit_quantile(
        beta,
        config.d,
        alpha=1.0 - config.alpha,
        method=method,
        m=config.limit_m,
        replications=config.limit_replications,
        seed=config.seed,
    )


def cmd_limit(config):
    rows = []
    for beta in config.betas:
        lq = _limit_quantile(config, beta, config.limit_method)
        rows.append(
            {
                "d": config.d,
                "statistic": f"T{beta}",
                "alpha": config.alpha,
                "method": lq.method,
                "quantile": lq.value,
                "mc_stderr": lq.mc_stderr,
                "replications": lq.replications,
                "cover_m": lq.m,
            }
        )
    return _with_provenance(rows, config)


def cmd_bahadur(dims=(2, 3, 5, 10)):
    from .bahadur import are_table

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
    """Read a CSV of directions into a SphericalSample.

    Accepted schemas (by header): ``lat,lon`` in degrees (d = 3), or
    coordinate columns ``x1..xd``.  An optional ``diameter_km`` column
    supports ``min_diameter`` filtering.  Slightly off-sphere coordinate rows
    are renormalized and counted; rows that cannot be repaired are skipped.
    """
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    with fh:
        reader = csv.reader(fh)
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
                raise DataError(
                    f"{path}: unknown schema {header!r}; accepted: lat,lon or x1..xd"
                )
        diam_idx = cols.index("diameter_km") if "diameter_km" in cols else None
        if min_diameter is not None and diam_idx is None:
            raise DataError(f"{path}: no diameter_km column for the diameter filter")
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
            if min_diameter is not None and diam < min_diameter:
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
            return SphericalSample(arr), report
        arr = np.array([v for _, v in raw])
        unit, repaired, bad = normalize_rows(arr)
        report.rows_repaired = int(repaired.sum())
        report.rows_skipped = int(bad.sum())
        keep = ~bad
        if not keep.any():
            raise DataError(f"{path}: every row failed unit-norm repair")
        report.rows_kept = int(keep.sum())
        return SphericalSample(unit[keep]), report


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
        text = json.dumps(rows, indent=2, sort_keys=True) + "\n"
    else:
        raise InputError(f"unknown output format {fmt!r}")
    if path is None:
        return text
    with open(path, "w", newline="") as fh:
        fh.write(text)
    return None


def _fmt_cell(v):
    if isinstance(v, float):
        return repr(float(v))  # shortest round-trip form, also for numpy scalars
    if isinstance(v, (np.integer,)):
        return int(v)
    return v
