"""Desk-scale null critical values for the maximal-projection statistics.

Reproduces a slice of the published 0.95 quantile table: finite n by direct
simulation, the limiting row by simulating the Gaussian field on a cover.
Published values at full replication size, for comparison:

    d=2, n=100 : 3.004  0.752  2.031  0.906  1.730  0.936
    d=2, limit : 2.986  0.750  2.050  0.924  1.729  0.944
"""

import numpy as np

from maxproj.harness import RunConfig, simulate_null
from maxproj.limits import limit_quantile

BETAS = (1, 2, 3, 4, 5, 6)

config = RunConfig(d=2, n=(100,), betas=BETAS, null_replications=4000, seed=11, workers=2)
print("simulating 4000 null replications at n=100, d=2, cover m=5000 ...")
nulls = simulate_null(config, 100, competitors=False)
finite = [np.quantile(nulls[f"T{b}"], 0.95) for b in BETAS]

print("simulating the limiting field (kernel route, 20000 draws) ...")
# each entry is (quantile, Monte Carlo standard error, simulated maxima)
limits = [limit_quantile(b, 2, 0.95, "kernel", m=1000, replications=20_000, seed=3)
          for b in BETAS]

print("\n        " + "".join(f"   T{b}  " for b in BETAS))
print("n=100  " + "".join(f"{q:7.3f}" for q in finite))
print("limit  " + "".join(f"{q:7.3f}" for q, _, _ in limits))
print("stderr " + "".join(f"{se:7.3f}" for _, se, _ in limits))
print(
    "\nFor power 1 the limit is exactly a chi-square: the 0.95 quantile of\n"
    f"chi2_2/2 is 2.996, and the simulated row gives {limits[0][0]:.3f}."
)
