"""The four benchmark workloads and their seeded inputs.

Each workload is one ``maxproj`` command at a fixed size.  ``--seed n`` picks
input slot ``n % SLOTS``: the slot is the command's ``--seed`` and, for
``test_catalogue``, also seeds the generated catalogue.  Reference outputs are
recorded for every slot (``record.py``), so any benchmark seed has one.
"""

import math
import random
from dataclasses import dataclass
from pathlib import Path

SLOTS = 16
#: the worker count of every untraced command: the sizes were chosen on two
#: cores, one single-threaded worker each
CLI_WORKERS = 2

CATALOGUE_KEPT = 1000
CATALOGUE_BELOW_CUT = 300
MIN_DIAMETER = 150.0

#: one alternative of each sampler family among the CLI's seven defaults; all
#: seven made a command of about 10 s, too few of them in one run for a steady median
POWER_ALTERNATIVES = ("vmf:kappa=1", "mixvmf2:p=0.5", "bing1:kappa=1", "lp:m=3,kappa=1")

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    args: tuple
    needs_catalogue: bool = False

    def argv(self, slot, out_path, workers, data_path=None):
        """CLI arguments (after ``maxproj``) for one run of this workload."""
        argv = list(self.args)
        if self.needs_catalogue:
            argv += ["--data", str(data_path)]
        return argv + ["--seed", str(slot), "--workers", str(workers), "--out", str(out_path)]

    def reference_path(self, slot):
        return REFERENCE_DIR / self.name / f"slot{slot:02d}.csv"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "critvals_d3",
            "null critical values, T statistics only: cover draw plus "
            "max_projection_values replication loop, no samplers, competitors, limits or ingest",
            ("critvals", "--d", "3", "--n", "100", "--beta", "1", "2", "3", "4", "5", "6",
             "--reps", "1000"),
        ),
        Workload(
            "power_d3",
            "power of the full competitor battery on the null and one alternative per sampler "
            "family: samplers, ca_statistic, sphere_sobolev, cvm_statistic",
            ("power", "--d", "3", "--n", "100", "--reps", "128", "--power-reps", "128",
             *(f"--alt={alt}" for alt in POWER_ALTERNATIVES)),
        ),
        Workload(
            "test_catalogue",
            "p-values for a generated 1000-row lat/lon catalogue: ingest and the cover kernel "
            "at n=1000, ten times the sample size of the other workloads",
            ("test", "--d", "3", "--min-diameter", f"{MIN_DIAMETER:g}", "--reps", "128"),
            needs_catalogue=True,
        ),
        Workload(
            "limit_d5",
            "limit-field quantile by the kernel route at m=2000: ZonalKernel.gram, eigh "
            "factorization and field draws, the only workload on kernels",
            ("limit", "--d", "5", "--beta", "6", "--method", "kernel", "--cover-m", "2000"),
        ),
    )
}


def write_catalogue(path, slot):
    """Write a crater-like ``lat,lon,diameter_km`` CSV seeded by ``slot``.

    ``CATALOGUE_KEPT`` rows reach ``MIN_DIAMETER`` and survive the filter,
    ``CATALOGUE_BELOW_CUT`` rows fall below it.  About 5% of the positions
    sit in three clusters, the rest are uniform on the sphere.  Only the
    standard library's ``random`` is used, so the bytes do not depend on the
    numpy version.
    """
    rng = random.Random(f"maxproj-catalogue-{slot}")
    centres = [(rng.uniform(-60.0, 60.0), rng.uniform(-180.0, 180.0)) for _ in range(3)]
    rows = []
    for i in range(CATALOGUE_KEPT + CATALOGUE_BELOW_CUT):
        if rng.random() < 0.05:
            c_lat, c_lon = rng.choice(centres)
            lat = min(90.0, max(-90.0, rng.gauss(c_lat, 6.0)))
            lon = (rng.gauss(c_lon, 6.0) + 180.0) % 360.0 - 180.0
        else:
            lat = math.degrees(math.asin(rng.uniform(-1.0, 1.0)))
            lon = rng.uniform(-180.0, 180.0)
        if i < CATALOGUE_KEPT:
            diameter = MIN_DIAMETER * rng.paretovariate(2.0)
        else:
            diameter = MIN_DIAMETER * rng.uniform(0.2, 0.99)
        rows.append(f"{lat:.6f},{lon:.6f},{diameter:.3f}\n")
    rng.shuffle(rows)
    Path(path).write_text("lat,lon,diameter_km\n" + "".join(rows))
