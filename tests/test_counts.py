"""Every count the package takes is an integer at or above its minimum.

Dimensions have their own test in ``test_legendre``; this file covers the
other counts (powers, orders, sample and cover sizes, replications, workers
and seeds) and pins the calls that used to truncate a float count or score
a value of no sphere.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maxproj import InputError
from maxproj.bahadur import local_are
from maxproj.geometry import make_cover, surface_area, uniform_points
from maxproj.harness import RunConfig, cmd_critvals, run_replications, write_rows
from maxproj.kernels import ZonalKernel
from maxproj.legendre import harmonic_dim, monomial_coefficients, power_expansion, psi_exact
from maxproj.limits import (
    harmonic_basis,
    limit_quantile,
    simulate_harmonic_max,
    simulate_kernel_max,
)
from maxproj.rng import as_generator, stream
from maxproj.samplers import LegendreProfile, VonMisesFisher, sample
from maxproj.statistics import cvm_kernel, evaluate_battery, max_projection_values, projection_cdf

E1 = np.array([1.0, 0.0, 0.0])
X = uniform_points(3, 20, stream(71))
COVER = make_cover(3, 50, 72)
TASK = {"d": 3, "n": 5, "betas": (1,), "m": 10, "seed": 1, "ns": (0, 5), "competitors": False}

#: name -> (the smallest value the count takes, a call that passes the count)
COUNTS = {
    "psi_exact power": (0, lambda v: psi_exact(3, v)),
    "power_expansion power": (0, lambda v: power_expansion(3, v)),
    "ZonalKernel power": (1, lambda v: ZonalKernel(v, 3)),
    "max_projection_values power": (1, lambda v: max_projection_values(X, [v], COVER)),
    "evaluate_battery power": (1, lambda v: evaluate_battery(X, [2, v], COVER)),
    "RunConfig power": (1, lambda v: RunConfig(betas=(v,))),
    "harmonic_dim order": (0, lambda v: harmonic_dim(3, v)),
    "monomial_coefficients order": (0, lambda v: monomial_coefficients(3, v)),
    "harmonic_basis order": (0, lambda v: harmonic_basis(3, [v], COVER)),
    "LegendreProfile order": (1, lambda v: LegendreProfile(v, E1, 0.5)),
    "local_are order": (1, lambda v: local_are("lp", 3, 3, m=v)),
    "uniform_points n": (1, lambda v: uniform_points(3, v, 0)),
    "sample n": (1, lambda v: sample(VonMisesFisher(E1, 1.0), v, 0)),
    "RunConfig n": (1, lambda v: RunConfig(n=(v,))),
    "make_cover m": (3, lambda v: make_cover(3, v, 0)),
    "simulate_kernel_max m": (3, lambda v: simulate_kernel_max(2, 3, v, 5)),
    "RunConfig cover_m": (1, lambda v: RunConfig(cover_m=v)),
    "simulate_kernel_max replications": (1, lambda v: simulate_kernel_max(2, 3, 20, v)),
    "simulate_harmonic_max replications": (1, lambda v: simulate_harmonic_max(2, 3, 20, v)),
    "RunConfig null_replications": (1, lambda v: RunConfig(null_replications=v)),
    "RunConfig power_replications": (1, lambda v: RunConfig(power_replications=v)),
    "run_replications replications": (1, lambda v: run_replications(TASK, v)),
    "RunConfig workers": (1, lambda v: RunConfig(workers=v)),
    "run_replications workers": (1, lambda v: run_replications(TASK, 64, v)),
    "simulate_kernel_max workers": (1, lambda v: simulate_kernel_max(2, 3, 20, 5, workers=v)),
    "simulate_harmonic_max workers": (1, lambda v: simulate_harmonic_max(2, 3, 20, 5, workers=v)),
    "limit_quantile workers": (1, lambda v: limit_quantile(2, 3, 0.95, "kernel", 20, 5,
                                                           workers=v)),
    "stream seed": (0, stream),
    "as_generator seed": (0, as_generator),
    "RunConfig seed": (0, lambda v: RunConfig(seed=v)),
}


@pytest.mark.parametrize("name", list(COUNTS))
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_non_integer_or_a_count_below_its_minimum_is_an_input_error(name, data):
    # any float, 2.0 and NaN included, a bool, and any integer below the
    # minimum; a TypeError, a ZeroDivisionError or a returned value fails the test
    minimum, call = COUNTS[name]
    value = data.draw(st.one_of(st.floats(), st.booleans(), st.integers(max_value=minimum - 1)))
    with pytest.raises(InputError):
        call(value)


@pytest.mark.parametrize("value", [0, -1, 1.5, True])
@pytest.mark.parametrize("name", [name for name in COUNTS if name.endswith(" workers")])
def test_a_worker_count_is_an_integer_of_at_least_one(name, value):
    with pytest.raises(InputError, match="workers must be an integer >= 1"):
        COUNTS[name][1](value)


@pytest.mark.parametrize("name", list(COUNTS))
def test_a_numpy_integer_at_the_minimum_is_a_count(name):
    minimum, call = COUNTS[name]
    call(np.int64(minimum))


def test_numpy_integer_counts_give_the_rows_of_python_integers():
    counts = dict(d=2, n=(30,), betas=(1, 3), cover_m=40, null_replications=64, seed=5)
    rows = cmd_critvals(RunConfig(**counts))
    as_numpy = cmd_critvals(RunConfig(**{
        k: tuple(map(np.int64, v)) if isinstance(v, tuple) else np.int64(v)
        for k, v in counts.items()}))
    assert write_rows(as_numpy) == write_rows(rows)
    assert json.loads(write_rows(as_numpy, fmt="json")) == json.loads(write_rows(rows, fmt="json"))


# --- calls that returned a number before the counts were checked --------------


@pytest.mark.parametrize("bad", [dict(n=(20.7,)), dict(seed=1.5)], ids=["n", "seed"])
def test_critvals_does_not_truncate_a_sample_size_or_seed(bad):
    # a row with n=20, and seed 1.5 drew the streams of seed 1
    settings_ = {"d": 3, "n": (20,), "betas": (1,), "null_replications": 64, "seed": 1, **bad}
    with pytest.raises(InputError):
        cmd_critvals(RunConfig(**settings_))


@pytest.mark.parametrize("betas", [[2, 2.5], [-1]], ids=["2.5", "-1"])
def test_evaluate_battery_rejects_a_power_that_is_no_count(betas):
    # [2, 2.5] wrote the cover value of power 2 over the closed-form T2, and
    # [-1] returned no statistic at all
    with pytest.raises(InputError, match="power must be an integer >= 1"):
        evaluate_battery(X, betas, COVER)


@pytest.mark.parametrize("m, replications", [(50.9, 10), (50, 10.5)], ids=["m", "replications"])
def test_limit_simulation_does_not_truncate_its_sizes(m, replications):
    with pytest.raises(InputError, match="must be an integer >= 1"):
        simulate_kernel_max(2, 3, m, replications)


@pytest.mark.parametrize("call", [
    lambda: projection_cdf(2.5, 0.3),
    lambda: surface_area(2.5),
    lambda: (cvm_kernel(5.0, 1.0), cvm_kernel(4.5, 1.0)),
    lambda: make_cover(2.5, 10, 1),
], ids=["projection_cdf", "surface_area", "cvm_kernel", "make_cover"])
def test_a_fractional_dimension_is_an_input_error(call):
    with pytest.raises(InputError, match="dimension must be an integer"):
        call()
