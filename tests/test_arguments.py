"""One integer check for every step count, path length, batch and block
size, seed and number of random trials: a bad value is an InvalidArgument,
which is also a ValueError."""

import numpy as np
import pytest

from hybridgibbs import (
    Analysis,
    ApproximatorSpec,
    Lazy,
    MetropolisRW,
    SliceModel,
    batch_means_variance,
    check_reversibility,
    cross_validate_variance,
    da_hybrid,
    joint_from_weights,
    mean_power_bound,
    mixing_curve,
    simulate,
    spectral_jensen_check,
    t_step,
)
from hybridgibbs.bounds import function_battery
from hybridgibbs.errors import HybridGibbsError, InvalidArgument, positive_int
from hybridgibbs.randomgen import random_joint, rng_from

SKEWED = joint_from_weights((2, 2), [0.1, 0.2, 0.3, 0.4])
LAZY = ApproximatorSpec(default=Lazy(0.4))
SLICE = SliceModel(np.array([2.0, 1.0]), (Lazy(0.5), Lazy(0.9)))
TWO_STATE = check_reversibility(np.array([[0.7, 0.3], [0.3, 0.7]]), np.array([0.5, 0.5]))
THREE_COORDS = random_joint(4, sizes=(2, 2, 2))

# Counts must be positive.
COUNTS = {
    "da_tstep": lambda t: Analysis(SKEWED, spec=LAZY).da_tstep(t),
    "da_variance_tstep": lambda t: Analysis(SKEWED, spec=LAZY).da_variance_tstep(t),
    "uniform_tstep_bound": lambda t: Analysis(SKEWED, spec=LAZY).uniform_tstep_bound(t),
    "slice_tstep": lambda t: Analysis(SLICE).slice_tstep(t),
    "mean_power_bound": lambda t: mean_power_bound(SLICE, Analysis(SLICE).inner_profile, t),
    "da_hybrid": lambda t: da_hybrid(SKEWED, LAZY, t=t),
    "t_step": lambda t: t_step(TWO_STATE.kernel, t),
    "spectral_jensen_check": lambda t: spectral_jensen_check(TWO_STATE, [1.0, -1.0], t),
    "simulate": lambda steps: simulate(TWO_STATE, 0, steps, seed=0),
    "batch_means_variance": lambda batch: batch_means_variance(
        simulate(TWO_STATE, 0, 100, seed=0), [1.0, -1.0], batch
    ),
    "mixing_curve": lambda tmax: mixing_curve(TWO_STATE, [1.0, 0.0], tmax),
    "block_comparison_ell": lambda ell: Analysis(THREE_COORDS).block_comparison(ell, 1),
    "block_comparison_m": lambda m: Analysis(THREE_COORDS).block_comparison(2, m),
    "metropolis_rw_radius": MetropolisRW,
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
CASES = [(site, value) for site in COUNTS for value in (0, 2.5, "2")]
CASES += [(site, value) for site in NONNEGATIVE for value in (-1, 2.5, "2")]


@pytest.mark.parametrize("site, value", CASES, ids=[f"{s}-{v}" for s, v in CASES])
def test_bad_count_is_a_named_error(site, value):
    with pytest.raises(InvalidArgument, match="must be a positive integer"):
        SITES[site](value)


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


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
def test_bad_tol_is_a_named_error(tol):
    with pytest.raises(InvalidArgument, match="tol must be finite and positive"):
        Analysis(SKEWED, spec=LAZY, tol=tol)


def test_radius_is_stored_as_an_int():
    rule = MetropolisRW(2.0)
    assert type(rule.radius) is int and rule == MetropolisRW(2)
    assert rule.describe() == {"rule": "metropolis_rw", "radius": 2}
