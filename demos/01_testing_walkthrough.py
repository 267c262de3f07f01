"""End-to-end walkthrough: is a sample of directions uniform?

Simulates a mildly concentrated sample on S^2, computes the maximal-projection
statistics for powers 1..6 plus the classical competitors, and calibrates
Monte Carlo p-values from a simulated null table.
"""

import numpy as np

from maxproj import VonMisesFisher, make_cover, sample
from maxproj.harness import RunConfig, evaluate_battery, mc_pvalue, simulate_null
from maxproj.rng import stream

D, N = 3, 150
BETAS = (1, 2, 3, 4, 5, 6)

theta = np.array([0.2, -0.4, 0.6])
theta /= np.linalg.norm(theta)
data = sample(VonMisesFisher(theta, 0.8), N, stream(2718))
print(f"sample: n={N} directions on S^{D-1}, drawn with a concentration of 0.8")

cover = make_cover(D, 5000, seed=42)
observed = evaluate_battery(data, BETAS, cover_points=cover, rng_ca=stream(2719))
print("\nobserved statistics:")
for name in sorted(observed):
    print(f"  {name:>12s} = {observed[name]:8.4f}")

print("\nsimulating the null table (2000 replications, same n) ...")
config = RunConfig(d=D, n=(N,), betas=BETAS, null_replications=2000, seed=7, workers=2)
nulls = simulate_null(config, N, competitors=True)

print("Monte Carlo p-values (rejection direction, (r+1)/(R+1)):")
for name in sorted(observed):
    lower = name.startswith("ca")
    p = mc_pvalue(nulls[name], observed[name], lower_tail=lower)
    flag = "  <- significant at 5%" if p < 0.05 else ""
    print(f"  {name:>12s}: p = {p:.4f}{flag}")

print(
    "\nThe odd powers react to the one-sided concentration; even powers look\n"
    "for axial structure and stay quiet here, matching the power study."
)
