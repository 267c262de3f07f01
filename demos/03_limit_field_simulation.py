"""Two routes to the limiting Gaussian field, and why they agree.

The null limit of the statistic is the maximum of a squared centered Gaussian
field with a zonal polynomial covariance.  Route one draws the field on a
random cover from its covariance matrix; route two expands it in spherical
harmonics with independent normal coefficients.  Both are exact in
distribution at the cover points, so their quantiles differ only by Monte
Carlo noise.
"""

import numpy as np
from scipy import stats

from maxproj import ZonalKernel, harmonic_dim
from maxproj.limits import simulate_harmonic_max, simulate_kernel_max

BETA, D, REPS = 2, 2, 50_000

kernel_max = simulate_kernel_max(BETA, D, m=1000, replications=REPS, seed=101)
harmonic_max = simulate_harmonic_max(BETA, D, m=1000, replications=REPS, seed=202)

print(f"power {BETA} field on the circle, {REPS} replications per route")
for q in (0.90, 0.95, 0.99):
    print(
        f"  {q:.2f} quantile: covariance route {np.quantile(kernel_max, q):.3f}, "
        f"harmonics route {np.quantile(harmonic_max, q):.3f}"
    )

kernel = ZonalKernel(BETA, D)
print("\nactive eigenvalues (order, eigenvalue, multiplicity):")
for k, lam in enumerate(kernel.eigenvalues):
    if lam:
        print(f"  order {k}: lambda = {float(lam):.6f}, multiplicity {harmonic_dim(D, k)}")
print(f"field variance rho(1) = sum lambda*nu = {float(kernel.total_variance):.6f}")

# power 1 sanity: d * max Z^2 is exactly chi-square with d degrees of freedom
m1 = simulate_kernel_max(1, 3, m=1000, replications=REPS, seed=303)
ks = stats.kstest(3 * m1, stats.chi2(df=3).cdf)
print(f"\npower 1, d=3: KS distance of 3*max Z^2 against chi2_3 = {ks.statistic:.4f}")
