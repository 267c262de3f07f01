"""Catalogue-style pipeline: lat/lon CSV in, Monte Carlo p-values out.

Synthesizes a small impact-catalogue lookalike (latitude, longitude, diameter
columns), keeps only large features, and runs the full testing pipeline.  The
same flow is available from the shell:

    maxproj ingest-check --data craters.csv --min-diameter 150
    maxproj test --data craters.csv --min-diameter 150 --reps 999
"""

import tempfile
from pathlib import Path

import numpy as np

from maxproj import VonMisesFisher, sample
from maxproj.harness import RunConfig, cmd_test, ingest
from maxproj.rng import stream

rng = stream(606)
n_small, n_large = 300, 119

# small features scattered uniformly, large ones mildly clustered
axis = np.array([0.3, 0.1, 0.95])
axis /= np.linalg.norm(axis)
small = sample(VonMisesFisher(axis, 0.0), n_small, rng)
large = sample(VonMisesFisher(axis, 1.0), n_large, rng)
points = np.vstack([small, large])
diam = np.concatenate([rng.uniform(8, 140, n_small), rng.uniform(150, 600, n_large)])

lat = np.degrees(np.arcsin(points[:, 2]))
lon = np.degrees(np.arctan2(points[:, 1], points[:, 0]))

# the catalogue lives only as long as the pipeline needs it
with tempfile.TemporaryDirectory() as tmp:
    csv_path = Path(tmp) / "synthetic_craters.csv"
    lines = ["lat,lon,diameter_km"]
    lines += [f"{la:.5f},{lo:.5f},{dk:.1f}" for la, lo, dk in zip(lat, lon, diam)]
    csv_path.write_text("\n".join(lines) + "\n")
    print(f"wrote {csv_path} with {points.shape[0]} rows")

    x, report = ingest(csv_path, min_diameter=150.0)
    print(
        f"ingest: schema={report.schema}, read={report.rows_read}, "
        f"kept={report.rows_kept}, filtered={report.rows_filtered}"
    )

    config = RunConfig(
        d=3,
        betas=(1, 2, 3, 4, 5, 6),
        null_replications=999,
        seed=31,
        workers=2,
        data=str(csv_path),
        min_diameter=150.0,
    )
    print(f"\ntesting the {x.shape[0]} large features (999 null replications) ...")
    for row in cmd_test(config):
        stars = "*" if row["pvalue"] < 0.05 else ""
        print(f"  {row['statistic']:>3s}: value {row['value']:8.4f}, "
              f"p = {row['pvalue']:.3f} {stars}")
print(
    "\nOdd powers are the sensitive ones for unipolar clustering like this;\n"
    "even powers react mainly to antipodal structure and carry far less power\n"
    "against it."
)
