"""Maximal-projection uniformity tests on the hypersphere.

A numpy/scipy library for testing uniformity of directions on S^{d-1} by the
maximal deviation of empirical projection moments, together with the zonal
covariance kernels and simulated quantiles of the limiting Gaussian field,
exact samplers for the alternative families of the accompanying power study,
the classical competitor tests, local Bahadur efficiencies, and a
deterministic Monte Carlo harness (also exposed as the ``maxproj`` CLI).
"""

# before the submodule imports: the harness stamps it on every output row
__version__ = "0.1.0"

from ._errors import DataError, InputError, NumericalError
from .geometry import latlon_to_unit, make_cover, surface_area
from .kernels import ZonalKernel
from .legendre import harmonic_dim, legendre_eval, power_expansion, psi
from .limits import limit_quantile, simulate_harmonic_max, simulate_kernel_max
from .samplers import (
    Bingham,
    LegendreProfile,
    MixtureVMF,
    Uniform,
    VonMisesFisher,
    Watson,
    parse_alternative,
    preset,
    sample,
)
from .statistics import (
    ca_statistic,
    circle_classical,
    cvm_statistic,
    max_projection_values,
    projection_cdf,
    sphere_sobolev,
    t1_closed,
    t2_closed,
)
from .bahadur import are_table, gamma_shift, kl_divergence, local_are, slope
from .harness import RunConfig, cmd_critvals, cmd_power, cmd_test, ingest, mc_pvalue

__all__ = [
    "Bingham",
    "DataError",
    "InputError",
    "LegendreProfile",
    "MixtureVMF",
    "NumericalError",
    "RunConfig",
    "Uniform",
    "VonMisesFisher",
    "Watson",
    "ZonalKernel",
    "are_table",
    "ca_statistic",
    "circle_classical",
    "cmd_critvals",
    "cmd_power",
    "cmd_test",
    "cvm_statistic",
    "gamma_shift",
    "harmonic_dim",
    "ingest",
    "kl_divergence",
    "latlon_to_unit",
    "legendre_eval",
    "limit_quantile",
    "local_are",
    "make_cover",
    "max_projection_values",
    "mc_pvalue",
    "parse_alternative",
    "power_expansion",
    "preset",
    "projection_cdf",
    "psi",
    "sample",
    "simulate_harmonic_max",
    "simulate_kernel_max",
    "slope",
    "sphere_sobolev",
    "surface_area",
    "t1_closed",
    "t2_closed",
]
