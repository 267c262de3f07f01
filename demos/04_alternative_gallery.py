"""Gallery of the alternative families used in the power study.

Draws from each class on S^2 and prints the sample moments that characterize
it: the resultant length along the symmetry axis (unipolar structure), the
second moment (axial structure), and the mean of the matched Legendre profile
(multipolar structure of a given order).
"""

import numpy as np

from maxproj import legendre_eval, preset, sample
from maxproj.rng import stream
from maxproj.samplers import Watson
from maxproj.special import vmf_mean_resultant, watson_mean_square

D, N = 3, 50_000
E1 = np.array([1.0, 0.0, 0.0])

gallery = [
    ("uniform", preset("uniform", D)),
    ("vMF(kappa=1)", preset("vmf1", D, kappa=1.0)),
    ("Watson(kappa=2)", Watson(E1, 2.0)),
    ("two-center mix (p=0.5, k=1/4)", preset("mixvmf2", D, p=0.5)),
    ("Bingham(diag 1..3, kappa=0.5)", preset("bing1", D, kappa=0.5)),
    ("Legendre profile m=3, kappa=1", preset("lp", D, m=3, kappa=1.0)),
]

print(f"{N} draws per class on S^2; moments along the first axis\n")
print(f"{'class':>32s} {'mean t':>9s} {'mean t^2':>9s} {'mean P3(t)':>11s}")
for idx, (label, spec) in enumerate(gallery):
    x = sample(spec, N, stream(404, idx))
    t = x @ E1
    p3 = legendre_eval(D, 3, np.clip(t, -1, 1))
    print(f"{label:>32s} {t.mean():9.4f} {(t**2).mean():9.4f} {p3.mean():11.4f}")

print("\nreference values:")
print(f"  uniform second moment 1/d            = {1/3:.4f}")
print(f"  vMF resultant A_3(1)                 = {vmf_mean_resultant(3, 1.0):.4f}")
print(f"  Watson second moment D_3(2)          = {watson_mean_square(3, 2.0):.4f}")
print(f"  profile-class mean P_3, kappa/nu_3(3) = {1.0/7.0:.4f}")
