"""One integer check for every step count, path length, batch and block
size, seed and number of random trials: a bad value, a bool among them, is
an InvalidArgument, which is also a ValueError."""

import numpy as np
import pytest

from hybridgibbs import (
    Analysis,
    ApproximatorSpec,
    Lazy,
    MetropolisRW,
    SliceModel,
    batch_means_variance,
    block_random_scan,
    check_reversibility,
    cross_validate_variance,
    da_hybrid,
    inner_block_kernel,
    joint_from_weights,
    mean_power_bound,
    mixing_curve,
    simulate,
    spectral_jensen_check,
)
from hybridgibbs.spectral import asymptotic_variance
from hybridgibbs.bounds import function_battery
from hybridgibbs.config import canonicalize
from hybridgibbs.errors import HybridGibbsError, InvalidArgument, InvalidStart, positive_int
from hybridgibbs.randomgen import random_joint, rng_from
from hybridgibbs.suite import run_suite

SKEWED = joint_from_weights((2, 2), [0.1, 0.2, 0.3, 0.4])
LAZY = ApproximatorSpec(default=Lazy(0.4))
SLICE = SliceModel(np.array([2.0, 1.0]), (Lazy(0.5), Lazy(0.9)))
TWO_STATE = check_reversibility(np.array([[0.7, 0.3], [0.3, 0.7]]), np.array([0.5, 0.5]))
THREE_COORDS = random_joint(4, sizes=(2, 2, 2))
RANDOM_CONFIG = canonicalize({"model": {"kind": "random", "sizes": [2, 2], "seed": 1}})

# Counts must be positive.
COUNTS = {
    "da_tstep": lambda t: Analysis(SKEWED, spec=LAZY).da_tstep(t),
    "da_variance_tstep": lambda t: Analysis(SKEWED, spec=LAZY).da_variance_tstep(t),
    "uniform_tstep_bound": lambda t: Analysis(SKEWED, spec=LAZY).uniform_tstep_bound(t),
    "slice_tstep": lambda t: Analysis(SLICE).slice_tstep(t),
    "mean_power_bound": lambda t: mean_power_bound(SLICE, Analysis(SLICE).inner_profile, t),
    "da_hybrid": lambda t: da_hybrid(SKEWED, LAZY, t=t),
    "spectral_jensen_check": lambda t: spectral_jensen_check(TWO_STATE, [1.0, -1.0], t),
    "simulate": lambda steps: simulate(TWO_STATE, 0, steps, seed=0),
    "batch_means_variance": lambda batch: batch_means_variance(
        simulate(TWO_STATE, 0, 100, seed=0), [1.0, -1.0], batch
    ),
    "mixing_curve": lambda tmax: mixing_curve(TWO_STATE, [1.0, 0.0], tmax),
    "block_comparison_ell": lambda ell: Analysis(THREE_COORDS).block_comparison(ell, 1),
    "block_comparison_m": lambda m: Analysis(THREE_COORDS).block_comparison(2, m),
    "metropolis_rw_radius": MetropolisRW,
    "block_random_scan": lambda size: block_random_scan(THREE_COORDS, size),
    "analysis_block": lambda size: Analysis(THREE_COORDS).block(size),
    "inner_block_kernel": lambda size: inner_block_kernel(THREE_COORDS, (0, 1), (0,), size),
}
# Seeds and numbers of random trials may also be 0.
NONNEGATIVE = {
    "function_battery_trials": lambda trials: function_battery(TWO_STATE, trials=trials),
    "function_battery_seed": lambda seed: function_battery(TWO_STATE, seed=seed),
    "analysis_seed": lambda seed: Analysis(SKEWED, spec=LAZY, seed=seed).dirichlet_sandwich(),
    "simulate_seed": lambda seed: simulate(TWO_STATE, 0, 10, seed=seed),
    "cross_validate_variance_seed": lambda seed: cross_validate_variance(
        TWO_STATE, [1.0, -1.0], 100, seed
    ),
    "rng_from": rng_from,
}
SITES = {**COUNTS, **NONNEGATIVE}
CASES = [(site, value) for site in COUNTS for value in (0, 2.5, "2", True)]
CASES += [(site, value) for site in NONNEGATIVE for value in (-1, 2.5, "2", True)]


@pytest.mark.parametrize("site, value", CASES, ids=[f"{s}-{v}" for s, v in CASES])
def test_bad_count_is_a_named_error(site, value):
    with pytest.raises(InvalidArgument, match="must be a positive integer"):
        SITES[site](value)


@pytest.mark.parametrize("size", [1.5, "1", True])
def test_block_size_spelled_as_one_is_not_one(size):
    # int() would read each of these as a block of one coordinate.
    for site in ("block_random_scan", "analysis_block", "inner_block_kernel"):
        with pytest.raises(InvalidArgument, match="block size must be a positive integer"):
            COUNTS[site](size)


@pytest.mark.parametrize("value", [True, False, np.True_, np.False_])
def test_a_bool_is_not_an_integer(value):
    with pytest.raises(InvalidArgument):
        positive_int(value, "t")
    with pytest.raises(InvalidArgument):
        positive_int(value, "seed", low=0)


@pytest.mark.parametrize("start", [True, False, np.True_])
def test_a_bool_start_is_not_a_state(start):
    with pytest.raises(InvalidStart, match="a state index or a distribution"):
        simulate(TWO_STATE, start, 10, seed=0)


def test_invalid_argument_is_a_value_error():
    assert issubclass(InvalidArgument, HybridGibbsError)
    assert issubclass(InvalidArgument, ValueError)


def test_integral_values_pass():
    assert positive_int(3, "t") == 3
    assert positive_int(2.0, "t") == 2
    assert positive_int(np.int64(4), "t") == 4
    for bad in (float("nan"), float("inf"), 1.5, 0):
        with pytest.raises(InvalidArgument):
            positive_int(bad, "t")


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf"), "x", None, [1]])
def test_bad_tol_is_a_named_error(tol):
    with pytest.raises(InvalidArgument, match="tol must be finite and positive"):
        Analysis(SKEWED, spec=LAZY, tol=tol)
    with pytest.raises(InvalidArgument, match="tol must be finite and positive"):
        spectral_jensen_check(TWO_STATE, [1.0, -1.0], 2, tol=tol)
    if tol is not None:  # run_suite reads None as the config's tol
        with pytest.raises(InvalidArgument, match="tol must be finite and positive"):
            run_suite(RANDOM_CONFIG, tol=tol)


# Each reads a function vector f over TWO_STATE's two states.
FUNCTION_SITES = {
    "cross_validate_variance": lambda f: cross_validate_variance(TWO_STATE, f, 100, 0),
    "asymptotic_variance": lambda f: asymptotic_variance(TWO_STATE, f),
    "batch_means_variance": lambda f: batch_means_variance(
        simulate(TWO_STATE, 0, 100, seed=0), f, 5
    ),
}
UNCONVERTIBLE = {"string": "x", "ragged": [1.0, [2.0, 3.0]], "dict": {}}


@pytest.mark.parametrize("kind", UNCONVERTIBLE)
@pytest.mark.parametrize("site", FUNCTION_SITES)
def test_unconvertible_function_is_a_named_error(site, kind):
    f = UNCONVERTIBLE[kind]
    with pytest.raises(InvalidArgument, match="function values must be numbers, got") as info:
        FUNCTION_SITES[site](f)
    assert repr(f)[:4] in str(info.value)


def test_run_suite_without_step_counts_is_a_named_error():
    # An empty t_values would run no t-step check at all.
    with pytest.raises(InvalidArgument, match="at least one step count"):
        run_suite(RANDOM_CONFIG, suites=["da"], t_values=[])


def test_run_suite_without_a_tol_uses_the_configs():
    config = canonicalize({"model": {"kind": "random", "sizes": [2, 2], "seed": 1}, "tol": 1e-6})
    assert {r.tol for r in run_suite(config, suites=["da"]).reports} == {1e-6}


def test_radius_is_stored_as_an_int():
    rule = MetropolisRW(2.0)
    assert type(rule.radius) is int and rule == MetropolisRW(2)
    assert rule.describe() == {"rule": "metropolis_rw", "radius": 2}
