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
from .geometry import (
    DirectionCover,
    SphericalSample,
    latlon_to_unit,
    make_cover,
    sample_uniform,
    surface_area,
)
from .kernels import ShiftFunction, Spectrum, ZonalKernel, funk_hecke_check
from .legendre import harmonic_dim, legendre_eval, power_expansion, psi
from .limits import LimitQuantile, limit_quantile, simulate_harmonic_max, simulate_kernel_max
from .samplers import (
    Bingham,
    LegendreProfile,
    MixtureVMF,
    Uniform,
    VonMisesFisher,
    Watson,
    density,
    parse_alternative,
    preset,
    sample,
)
from .statistics import (
    TestOutcome,
    ca_test,
    circle_classical,
    cvm_test,
    projection_cdf,
    sphere_sobolev,
    t1_closed,
    t2_closed,
    t_stat,
)
from .bahadur import are_table, gamma_shift, kl_divergence, local_are, slope
from .harness import RunConfig, cmd_critvals, cmd_power, cmd_test, ingest, mc_pvalue

__all__ = [
    "Bingham",
    "DataError",
    "DirectionCover",
    "InputError",
    "LegendreProfile",
    "LimitQuantile",
    "MixtureVMF",
    "NumericalError",
    "RunConfig",
    "ShiftFunction",
    "Spectrum",
    "SphericalSample",
    "TestOutcome",
    "Uniform",
    "VonMisesFisher",
    "Watson",
    "ZonalKernel",
    "are_table",
    "ca_test",
    "circle_classical",
    "cmd_critvals",
    "cmd_power",
    "cmd_test",
    "cvm_test",
    "density",
    "funk_hecke_check",
    "gamma_shift",
    "harmonic_dim",
    "ingest",
    "kl_divergence",
    "latlon_to_unit",
    "legendre_eval",
    "limit_quantile",
    "local_are",
    "make_cover",
    "mc_pvalue",
    "parse_alternative",
    "power_expansion",
    "preset",
    "projection_cdf",
    "psi",
    "sample",
    "sample_uniform",
    "simulate_harmonic_max",
    "simulate_kernel_max",
    "slope",
    "sphere_sobolev",
    "surface_area",
    "t1_closed",
    "t2_closed",
    "t_stat",
]
