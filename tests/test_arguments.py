"""One integer check for every step count, path length, batch and block
size, seed and number of random trials: a bad value, a bool among them, is
an InvalidArgument, which is also a ValueError.  One converter for each
value kind, the value type itself: an argument that does not convert is a
named error, never a bare one."""

import numpy as np
import pytest

from hybridgibbs import (
    Analysis,
    ApproximatorSpec,
    ApproxQuality,
    Exact,
    ExplicitMatrix,
    FunctionVec,
    Lazy,
    MetropolisIndep,
    MetropolisRW,
    NormProfile,
    ProbVec,
    ProductSpace,
    SliceModel,
    StochasticKernel,
    approx_quality,
    batch_means_variance,
    block_random_scan,
    check_reversibility,
    conditional,
    conditional_joint,
    cross_validate_variance,
    da_exact,
    da_hybrid,
    dominating_norm_profile,
    exact_random_scan,
    hybrid_random_scan,
    inner_block_kernel,
    joint_from_weights,
    make_approximator,
    marginal,
    mean_power_bound,
    mixing_curve,
    product_joint,
    rms_power_bound,
    run_suite,
    simulate,
    spectral_jensen_check,
    spectral_summary,
)
from hybridgibbs.spectral import asymptotic_variance
from hybridgibbs.bounds import function_battery
from hybridgibbs.config import canonicalize
from hybridgibbs.errors import (
    CrossCheckFailure,
    DegenerateConstants,
    DimensionMismatch,
    HybridGibbsError,
    InvalidArgument,
    InvalidDistribution,
    InvalidKernel,
    InvalidSpec,
    InvalidStart,
    MissingLevelKernel,
    NonPositiveWeight,
    NoSpectralGap,
    SpaceTooLarge,
    positive_int,
)
from hybridgibbs.randomgen import random_joint, rng_from

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


# Each site reads one argument of a value kind: a probability vector or
# weights, a kernel matrix, a function vector, a coordinate or a size.
KIND_SITES = {
    # probability vectors and weights
    "ProbVec": ProbVec,
    "joint_from_weights": lambda v: joint_from_weights((2, 2), v),
    "product_joint": product_joint,
    "product_joint_factor": lambda v: product_joint([v, [0.5, 0.5]]),
    "check_reversibility_stationary": lambda v: check_reversibility(TWO_STATE.kernel.matrix, v),
    "simulate_start": lambda v: simulate(TWO_STATE, v, 10, seed=0),
    "mixing_curve": lambda v: mixing_curve(TWO_STATE, v, 5),
    "analysis_p": lambda v: Analysis(SKEWED, p=v),
    "exact_random_scan": lambda v: exact_random_scan(SKEWED, v),
    "hybrid_random_scan": lambda v: hybrid_random_scan(SKEWED, v, LAZY),
    "selection_reweighting": lambda v: Analysis(SKEWED, spec=LAZY).selection_reweighting(v),
    "slice_density": SliceModel,
    "independence_proposal": lambda v: Analysis(
        SKEWED, spec=ApproximatorSpec(MetropolisIndep(v))
    ).dirichlet_sandwich(),
    "norm_profile": lambda v: NormProfile(v, "per_level", "supplied"),
    "dominating_norm_profile": lambda v: dominating_norm_profile(SLICE, v),
    # kernel matrices
    "StochasticKernel": StochasticKernel,
    "check_reversibility_kernel": lambda v: check_reversibility(v, [0.5, 0.5]),
    "explicit_table": lambda v: make_approximator(
        SKEWED, ApproximatorSpec(ExplicitMatrix({(0, (0,)): v})), 0, (0,)
    ),
    "slice_level_kernel": lambda v: SliceModel([2.0, 1.0], (v, Lazy(0.5))),
    # function vectors
    "FunctionVec": FunctionVec,
    "asymptotic_variance": lambda v: asymptotic_variance(TWO_STATE, v),
    "spectral_jensen_check": lambda v: spectral_jensen_check(TWO_STATE, v, 2),
    "batch_means_variance": lambda v: batch_means_variance(simulate(TWO_STATE, 0, 100, 0), v, 5),
    "cross_validate_variance": lambda v: cross_validate_variance(TWO_STATE, v, 100, 0),
    "variance_sandwich": lambda v: Analysis(SKEWED, spec=LAZY).variance_sandwich(f=v),
    # coordinates
    "conditional_coordinate": lambda v: conditional(SKEWED, v, (0,)),
    "conditional_complement": lambda v: conditional(SKEWED, 0, v),
    "marginal": lambda v: marginal(SKEWED, v),
    "conditional_joint": lambda v: conditional_joint(THREE_COORDS, v, (0,)),
    "inner_block_kernel": lambda v: inner_block_kernel(THREE_COORDS, (0, 1), v, 1),
    "approx_quality_coords": lambda v: approx_quality(SKEWED, LAZY, v),
    "make_approximator": lambda v: make_approximator(SKEWED, LAZY, 0, v),
    "encode": SKEWED.space.encode,
    "decode": SKEWED.space.decode,
    # sizes
    "ProductSpace": ProductSpace,
    "joint_from_weights_sizes": lambda v: joint_from_weights(v, [0.25] * 4),
    # sources: a joint, or a joint or a slice model
    "Analysis": Analysis,
    "da_exact": da_exact,
    "da_hybrid_source": lambda v: da_hybrid(v, LAZY),
    "exact_random_scan_joint": exact_random_scan,
    "block_random_scan_joint": lambda v: block_random_scan(v, 1),
    "marginal_joint": lambda v: marginal(v, (0,)),
    "conditional_joint_joint": lambda v: conditional_joint(v, (0,), (0,)),
    "approx_quality_joint": lambda v: approx_quality(v, LAZY),
    "make_approximator_joint": lambda v: make_approximator(v, LAZY, 0, (0,)),
    "mean_power_bound_source": lambda v: mean_power_bound(v, Analysis(SLICE).inner_profile, 2),
    # pairs
    "spectral_summary": spectral_summary,
    "asymptotic_variance_pair": lambda v: asymptotic_variance(v, [1.0, -1.0]),
    "spectral_jensen_check_pair": lambda v: spectral_jensen_check(v, [1.0, -1.0], 2),
    "simulate_pair": lambda v: simulate(v, 0, 10, seed=0),
    "cross_validate_variance_pair": lambda v: cross_validate_variance(v, [1.0, -1.0], 100, 0),
    "mixing_curve_pair": lambda v: mixing_curve(v, [1.0, 0.0], 5),
    "function_battery_pair": function_battery,
    # profiles
    "mean_power_bound_profile": lambda v: mean_power_bound(SKEWED, v, 2),
    "rms_power_bound_profile": lambda v: rms_power_bound(SLICE, v, 2),
}
ILL_TYPED = {**UNCONVERTIBLE, "holding a string": [0.5, "x"]}


@pytest.mark.parametrize("kind", ILL_TYPED)
@pytest.mark.parametrize("site", KIND_SITES)
def test_ill_typed_value_is_a_named_error(site, kind):
    with pytest.raises(HybridGibbsError):
        KIND_SITES[site](ILL_TYPED[kind])


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: Analysis("x"), "source must be a JointDistribution or a SliceModel, got str"),
        (lambda: da_exact(TWO_STATE), "source must be a JointDistribution or a SliceModel"),
        (lambda: marginal(SLICE, (0,)), "joint must be a JointDistribution, got SliceModel"),
        (lambda: spectral_summary(SKEWED), "rev must be a ReversiblePair, got JointDistribution"),
        (lambda: mean_power_bound(SKEWED, "x", 2), "profile must be a NormProfile, got str"),
    ],
    ids=["source", "pair-for-source", "slice-for-joint", "joint-for-pair", "profile"],
)
def test_a_value_of_another_kind_is_named(call, name):
    # A source, a pair and a profile are each checked once at entry, by type.
    with pytest.raises(InvalidArgument, match=name):
        call()


# An int where a collection is expected.
INT_FOR_COLLECTION = {
    "marginal": lambda: marginal(SKEWED, 0),
    "approx_quality": lambda: approx_quality(SKEWED, LAZY, 0),
    "ProductSpace": lambda: ProductSpace(5),
    "joint_from_weights": lambda: joint_from_weights(4, [0.25] * 4),
    "product_joint": lambda: product_joint(5),
    "conditional": lambda: conditional(SKEWED, 0, 1),
    "encode": lambda: SKEWED.space.encode(3),
}


@pytest.mark.parametrize("site", INT_FOR_COLLECTION)
def test_an_int_for_a_collection_is_a_named_error(site):
    with pytest.raises(InvalidArgument, match="must be a collection, got"):
        INT_FOR_COLLECTION[site]()


def test_a_value_type_passes_its_own_instances_through():
    pv = ProbVec([1.0, 1.0])
    assert ProbVec(pv).weights is pv.weights
    k = StochasticKernel([[0.5, 0.5], [0.5, 0.5]])
    assert StochasticKernel(k).matrix is k.matrix
    # A pair built from checked values reads those same arrays.
    rev = check_reversibility(k, pv)
    assert rev.kernel.matrix is k.matrix and rev.stationary.weights is pv.weights


@pytest.mark.parametrize("spec", [Lazy(0.3), "x", 3, {}], ids=["rule", "str", "int", "dict"])
def test_a_spec_that_is_not_a_spec_is_a_named_error(spec):
    name = type(spec).__name__
    for call in (
        lambda: Analysis(SKEWED, spec=spec),
        lambda: approx_quality(SKEWED, spec),
        lambda: hybrid_random_scan(SKEWED, spec=spec),
        lambda: da_hybrid(SKEWED, spec),
        lambda: make_approximator(SKEWED, spec, 0, (0,)),
    ):
        with pytest.raises(InvalidSpec, match=f"approximator spec is required, got {name}"):
            call()


def test_overrides_that_are_not_a_dict_are_a_named_error():
    with pytest.raises(InvalidSpec, match="overrides must be a dict, got str"):
        ApproximatorSpec(default=Lazy(0.3), overrides="x")


def test_step_count_past_the_float_range_runs():
    # 2 * 1e308 does not fit a float: the rms bound's exponent is inf, and
    # every profile value below 1 goes to 0 under it.
    lazy = {"rule": "lazy", "epsilon": 0.3}
    model = {"kind": "slice", "density": [1.0, 2.0, 3.0], "level_kernels": [lazy] * 3}
    reports = run_suite(canonicalize({"model": model, "t": [1e308]})).reports
    assert reports and all(r.passed for r in reports)
    assert mean_power_bound(SLICE, Analysis(SLICE).inner_profile, 10**400) == 0.0


@pytest.mark.parametrize("t", [2**1024, 10**400], ids=["2**1024", "10**400"])
def test_t_step_checks_past_the_float_range_run(t):
    # t is read as +inf in the powers and quotients: a_t and |S_h|^t go to
    # 0, (gap - a_t) / t to 0, and t (1 - |S_h|) to inf.
    joint = Analysis(SKEWED, spec=LAZY)
    reports = joint.da_tstep(t) + joint.da_variance_tstep(t) + joint.uniform_tstep_bound(t)
    reports += Analysis(SLICE).slice_tstep(t)
    assert all(r.passed for r in reports)
    assert all(r.witness["t"] == t for r in reports if "t" in r.witness)
    by_name = {r.name: r for r in reports}
    assert by_name["da-tstep-bernoulli"].rhs == np.inf
    assert by_name["slice-tstep-lower"].lhs == 0.0


def test_too_many_trials_is_a_named_error():
    model = {"kind": "random", "sizes": [2, 2], "seed": 1}
    config = canonicalize({"model": model, "trials": 1e308})
    with pytest.raises(SpaceTooLarge, match=r"a battery of 1\d{308} functions exceeds the cap"):
        run_suite(config)


UNIFORM22 = joint_from_weights((2, 2), [1.0, 1.0, 1.0, 1.0])
SWAP = ExplicitMatrix({(0, (y,)): [[0.0, 1.0], [1.0, 0.0]] for y in range(2)})
# Guards that no other test reaches: (state cap variable, call, error, message).
GUARDS = {
    "probvec-nan": (None, lambda: ProbVec([1.0, np.nan]), InvalidDistribution, "must be finite"),
    "open-support": (
        None,
        lambda: spectral_summary(
            check_reversibility([[0.5, 0, 0.5], [0, 1, 0], [0, 0, 1]], [1e-12, 1 - 1e-12, 0])
        ),
        InvalidKernel,
        "support is not closed",
    ),
    "spec-default": (
        None,
        lambda: ApproximatorSpec(default="exact"),
        InvalidSpec,
        "unknown approximator rule 'exact'",
    ),
    "spec-override": (
        None,
        lambda: ApproximatorSpec(overrides={0: 3}),
        InvalidSpec,
        "unknown approximator rule 3 for coordinate 0",
    ),
    "explicit-shape": (
        None,
        lambda: make_approximator(
            UNIFORM22, ApproximatorSpec(ExplicitMatrix({(0, (0,)): np.eye(3)})), 0, (0,)
        ),
        InvalidSpec,
        r"has shape \(3, 3\), expected \(2, 2\)",
    ),
    "profile-length": (
        None,
        lambda: dominating_norm_profile(UNIFORM22, [0.5], LAZY),
        InvalidSpec,
        "profile has length 1, expected 2",
    ),
    "sandwich-ratio-2": (
        None,
        lambda: Analysis(UNIFORM22, spec=ApproximatorSpec(Exact(), {0: SWAP})).variance_sandwich(),
        DegenerateConstants,
        "reaches 2",
    ),
    "da-variance-no-gap": (
        None,
        lambda: Analysis(
            joint_from_weights((2, 2), [0.5, 0, 0, 0.5]), spec=ApproximatorSpec()
        ).da_variance_tstep(2),
        NoSpectralGap,
        "exact marginal chain has no spectral gap",
    ),
    "mixing-start-length": (
        None,
        lambda: mixing_curve(TWO_STATE, [1.0, 0.0, 0.0], 3),
        DimensionMismatch,
        "initial distribution has the wrong length",
    ),
    "slice-2d": (None, lambda: SliceModel([[1.0, 2.0]]), NonPositiveWeight, "nonempty 1-d"),
    "slice-empty": (None, lambda: SliceModel([]), NonPositiveWeight, "nonempty 1-d"),
    "level-kernel-shape": (
        None,
        lambda: da_hybrid(SliceModel([1.0, 2.0], level_kernels=[np.eye(3), np.eye(1)])),
        MissingLevelKernel,
        r"level 1 kernel has shape \(3, 3\), expected \(2, 2\)",
    ),
    "state-cap-not-int": (
        "lots",
        lambda: SliceModel([1.0]),
        SpaceTooLarge,
        "HYBRIDGIBBS_STATE_CAP='lots' is not an integer",
    ),
    "marginal-duplicates": (
        None,
        lambda: marginal(UNIFORM22, (0, 0)),
        DimensionMismatch,
        "coordinate set has duplicates",
    ),
    "marginal-range": (
        None,
        lambda: marginal(UNIFORM22, (5,)),
        DimensionMismatch,
        r"coordinates \(5,\) out of range",
    ),
    "quality-norm": (
        None,
        lambda: ApproxQuality({}, 2.0, 0.5, 0.5, True),
        CrossCheckFailure,
        r"aggregate norm 2.0 outside \[0, 1\]",
    ),
}


@pytest.mark.parametrize("guard", GUARDS)
def test_each_guard_raises_its_named_error(guard, monkeypatch):
    cap, call, error, message = GUARDS[guard]
    if cap is not None:
        monkeypatch.setenv("HYBRIDGIBBS_STATE_CAP", cap)
    with pytest.raises(error, match=message):
        call()
