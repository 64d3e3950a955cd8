"""Approximation quality, power bounds, and every certification check."""

from itertools import combinations

import numpy as np
import pytest

from hybridgibbs import (
    Analysis,
    ApproximatorSpec,
    Exact,
    Lazy,
    MetropolisRW,
    NormProfile,
    SliceModel,
    approx_quality,
    canonicalize,
    da_exact,
    dominating_norm_profile,
    exact_random_scan,
    inner_block_kernel,
    joint_from_weights,
    mean_power_bound,
    product_joint,
    rms_power_bound,
    run_suite,
)
from hybridgibbs import slicemodel
from hybridgibbs.approximators import kernel_for_target
from hybridgibbs.bounds import function_battery
from hybridgibbs.spectral import spectral_summary
from hybridgibbs.errors import (
    DimensionMismatch,
    DominationViolated,
    InvalidArgument,
    InvalidBlockSize,
    InvalidSpec,
    NonUniformSelection,
    PreconditionUnmet,
    ZeroSelectionProb,
)
from hybridgibbs.randomgen import (
    random_joint,
    random_lazy_spec,
    random_mixed_spec,
    rng_from,
)

SKEWED = joint_from_weights((2, 2), [0.1, 0.2, 0.3, 0.4])
TWO_COINS = product_joint([[0.5, 0.5], [0.5, 0.5]])


def all_pass(reports):
    return all(r.status == "pass" for r in reports)


def min_slack(reports):
    return min(r.slack for r in reports)


class TestApproxQuality:
    def test_all_exact(self):
        q = approx_quality(SKEWED, ApproximatorSpec())
        assert q.max_norm == 0.0
        assert q.ratio_min == 1.0
        assert q.ratio_max == 1.0
        assert q.all_psd

    def test_all_lazy(self):
        q = approx_quality(SKEWED, ApproximatorSpec(default=Lazy(0.25)))
        assert q.max_norm == pytest.approx(0.25, abs=1e-12)
        assert q.ratio_min == pytest.approx(0.75, abs=1e-12)
        assert q.ratio_max == pytest.approx(0.75, abs=1e-12)
        assert q.all_psd

    def test_mixed(self):
        spec = ApproximatorSpec(default=Exact(), overrides={0: Lazy(0.3)})
        q = approx_quality(SKEWED, spec)
        assert q.max_norm == pytest.approx(0.3, abs=1e-12)
        assert q.ratio_min == pytest.approx(0.7, abs=1e-12)
        assert q.ratio_max == pytest.approx(1.0, abs=1e-12)

    def test_consistency_on_random_specs(self):
        for seed in range(15):
            joint = random_joint(seed)
            q = approx_quality(joint, random_mixed_spec(seed + 1, joint))
            assert q.ratio_min >= 1.0 - q.max_norm - 1e-9
            assert q.ratio_max <= 1.0 + q.max_norm + 1e-9
            if q.all_psd:
                assert q.ratio_max <= 1.0 + 1e-9

    def test_coordinate_restriction(self):
        spec = ApproximatorSpec(default=Exact(), overrides={1: Lazy(0.5)})
        q = approx_quality(SKEWED, spec, coords=(0,))
        assert q.max_norm == 0.0
        assert all(i == 0 for (i, _y) in q.per_conditional)


class TestNormProfiles:
    def test_exact_profile_lazy(self):
        spec = ApproximatorSpec(default=Lazy(0.4))
        prof = Analysis(SKEWED, spec=spec).inner_profile
        np.testing.assert_allclose(prof.values, [0.4, 0.4], atol=1e-12)
        assert prof.kind == "per_z"

    def test_dominating_profile_accepted(self):
        spec = ApproximatorSpec(default=Lazy(0.4))
        prof = dominating_norm_profile(SKEWED, [0.5, 0.45], spec)
        assert prof.derivation == "supplied"

    def test_domination_violated(self):
        spec = ApproximatorSpec(default=Lazy(0.4))
        with pytest.raises(DominationViolated):
            dominating_norm_profile(SKEWED, [0.1, 0.5], spec)

    def test_values_must_be_probability_like(self):
        spec = ApproximatorSpec(default=Lazy(0.4))
        with pytest.raises(InvalidSpec):
            dominating_norm_profile(SKEWED, [0.5, 1.5], spec)

    def test_non_finite_profile_is_rejected(self):
        # NaN never compares below the exact norms, nor wins a max.
        model = SliceModel(np.array([1.0, 2.0, 2.0]), (Lazy(0.3), MetropolisRW(1)))
        with pytest.raises(InvalidSpec, match="finite"):
            NormProfile(np.array([np.nan, np.nan]), "per_level", "supplied")
        with pytest.raises(InvalidSpec, match="finite"):
            dominating_norm_profile(model, [np.nan, np.nan])

    def test_profiles_need_two_coordinates(self):
        # With three coordinates, coordinate-0 conditionals that share their
        # second coordinate would overwrite each other's entry in a per-z
        # profile; the DA checks reject such a joint too.
        from hybridgibbs.randomgen import random_joint

        joint = random_joint(3, sizes=(2, 3, 2))
        spec = ApproximatorSpec(default=Lazy(0.3))
        with pytest.raises(DimensionMismatch):
            Analysis(joint, spec=spec).inner_profile
        with pytest.raises(DimensionMismatch):
            dominating_norm_profile(joint, [0.5, 0.5, 0.5], spec)
        with pytest.raises(DimensionMismatch):
            Analysis(joint, spec=spec).da_tstep(t=2)


class TestPowerBounds:
    def test_constant_profile(self):
        spec = ApproximatorSpec(default=Lazy(0.6))
        prof = Analysis(SKEWED, spec=spec).inner_profile
        for t in (1, 2, 5):
            assert mean_power_bound(SKEWED, prof, t) == pytest.approx(0.6**t, rel=1e-12)
            assert rms_power_bound(SKEWED, prof, t) == pytest.approx(0.6**t, rel=1e-12)

    def test_slice_two_level_hand_formula(self):
        model = SliceModel(density=np.array([2.0, 1.0]))
        g1, g2 = 0.3, 0.8
        prof = dominating_norm_profile(
            SliceModel(
                density=np.array([2.0, 1.0]),
                level_kernels=(Lazy(g1), np.array([[1.0]])),
            ),
            [g1, g2],
        )
        for t in (1, 2, 3, 6):
            expected = max(g1**t, (g1**t + g2**t) / 2)
            assert mean_power_bound(model, prof, t) == pytest.approx(expected, rel=1e-12)
        with pytest.raises(InvalidSpec, match="expected 2"):
            mean_power_bound(model, NormProfile([g1], "per_level", "exact"), 2)

    def test_joint_profile_length_checked(self):
        with pytest.raises(InvalidSpec, match="expected 2"):
            mean_power_bound(SKEWED, NormProfile([0.5, 0.5, 0.5], "per_z", "exact"), 2)

    def test_alpha_nonincreasing_and_vanishing(self):
        model = SliceModel(density=np.array([2.0, 1.0]))
        prof = dominating_norm_profile(
            SliceModel(
                density=np.array([2.0, 1.0]),
                level_kernels=(Lazy(0.5), np.array([[1.0]])),
            ),
            [0.5, 0.9],
        )
        values = [mean_power_bound(model, prof, t) for t in range(1, 65)]
        assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-2

    def test_rms_strictly_larger_with_flat_level(self):
        model = SliceModel(density=np.array([2.0, 1.0]))
        prof = dominating_norm_profile(
            SliceModel(
                density=np.array([2.0, 1.0]),
                level_kernels=(Lazy(0.5), np.array([[1.0]])),
            ),
            [0.5, 1.0],
        )
        for t in (1, 2, 4):
            a = mean_power_bound(model, prof, t)
            b = rms_power_bound(model, prof, t)
            assert b > a + 1e-6


class TestDirichletSandwich:
    def test_exact_spec_equalities(self):
        reps = Analysis(TWO_COINS, None, ApproximatorSpec(), seed=0).dirichlet_sandwich(trials=8)
        assert all_pass(reps)
        assert abs(min_slack(reps)) < 1e-12

    def test_lazy_tight_both_sides(self):
        reps = Analysis(
            SKEWED, None, ApproximatorSpec(default=Lazy(0.4)), seed=0
        ).dirichlet_sandwich(trials=8)
        assert all_pass(reps)
        assert abs(min_slack(reps)) < 1e-10

    def test_random_sweep(self):
        for seed in range(50):
            joint = random_joint(seed)
            spec = random_mixed_spec(seed + 1000, joint)
            reps = Analysis(joint, None, spec, seed=seed).dirichlet_sandwich(trials=16)
            assert min_slack(reps) >= -1e-9


class TestGapSandwich:
    def test_lazy_lower_bound_tight(self):
        reps = Analysis(SKEWED, None, ApproximatorSpec(default=Lazy(0.3))).gap_sandwich()
        lower = next(r for r in reps if r.name.endswith("lower"))
        assert abs(lower.slack) < 1e-10

    def test_exact_all_equal(self):
        reps = Analysis(SKEWED, None, ApproximatorSpec()).gap_sandwich()
        assert all(abs(r.slack) < 1e-12 for r in reps)

    def test_random_sweep(self):
        for seed in range(50):
            joint = random_joint(seed + 7)
            spec = random_mixed_spec(seed + 77, joint)
            assert min_slack(Analysis(joint, None, spec).gap_sandwich()) >= -1e-9


class TestVarianceSandwich:
    def test_exact_spec_collapses(self):
        reps = Analysis(SKEWED, None, ApproximatorSpec()).variance_sandwich(trials=4)
        assert all_pass(reps)
        assert abs(min_slack(reps)) < 1e-9

    def test_lazy_eigenfunction_formula(self):
        # For an eigenfunction with exact eigenvalue lam, the hybrid variance
        # is (1 + lam_h) / (1 - lam_h) with lam_h = eps + (1 - eps) lam.
        eps = 0.2
        joint = TWO_COINS
        T = exact_random_scan(joint)
        F, _ = function_battery(T, trials=0, seed=0)
        from hybridgibbs import asymptotic_variance, hybrid_random_scan

        Th = hybrid_random_scan(joint, spec=ApproximatorSpec(default=Lazy(eps)))
        w = T.stationary.weights
        K = T.kernel.matrix
        for k in range(F.shape[1]):
            f = F[:, k]
            lam = float(w @ (f * (K @ f)))
            lam_h = eps + (1 - eps) * lam
            v = asymptotic_variance(Th, f)
            assert v == pytest.approx((1 + lam_h) / (1 - lam_h), rel=1e-10)
        reps = Analysis(joint, None, ApproximatorSpec(default=Lazy(eps))).variance_sandwich()
        assert all_pass(reps)

    def test_random_sweep(self):
        count = 0
        for seed in range(60):
            joint = random_joint(seed + 13)
            spec = random_lazy_spec(seed + 31, joint, eps_range=(0.0, 0.8))
            reps = Analysis(joint, None, spec, seed=seed).variance_sandwich(trials=8)
            assert min_slack(reps) >= -1e-9
            count += 1
        assert count == 60

    def test_supplied_function_is_validated(self):
        analysis = Analysis(SKEWED, spec=ApproximatorSpec(default=Lazy(0.3)))
        with pytest.raises(DimensionMismatch):
            analysis.variance_sandwich(f=[1.0, -1.0])
        with pytest.raises(InvalidArgument, match="finite"):
            analysis.variance_sandwich(f=[1.0, np.nan, 0.0, -1.0])

    def test_supplied_battery_column_reads_its_battery_report(self):
        joint = random_joint(5, sizes=(3, 2))
        analysis = Analysis(joint, spec=random_lazy_spec(6, joint, eps_range=(0.1, 0.6)), seed=3)
        F, labels = function_battery(analysis.T, trials=8, seed=3)
        for want in analysis.variance_sandwich(trials=8):
            f = F[:, labels.index(want.witness["f"])]
            before = f.copy()
            got = {r.name: r for r in analysis.variance_sandwich(f=f)}[want.name]
            assert np.array_equal(f, before)
            assert got.witness["f"] == {"kind": "supplied"}
            assert got.lhs == pytest.approx(want.lhs, rel=1e-12, abs=1e-12)
            assert got.rhs == pytest.approx(want.rhs, rel=1e-12, abs=1e-12)


class TestDaChecks:
    def test_gap_sandwich_lazy_tight(self):
        reps = Analysis(SKEWED, spec=ApproximatorSpec(default=Lazy(0.5))).da_gap_sandwich()
        lower = next(r for r in reps if r.name.endswith("lower"))
        assert abs(lower.slack) < 1e-10
        assert all_pass(reps)

    def test_tstep_exact_spec(self):
        reps = Analysis(SKEWED, spec=ApproximatorSpec()).da_tstep(t=2, trials=8)
        assert all_pass(reps)
        gap_lower = next(r for r in reps if r.name == "da-tstep-gap-lower")
        assert gap_lower.witness["alpha"] == pytest.approx(0.0, abs=1e-15)

    def test_tstep_functional_every_eigenvector(self):
        # The battery includes the full eigenbasis; verify the functional
        # inequality individually for each eigenvector.
        joint = random_joint(71, sizes=(3, 3))
        spec = random_mixed_spec(72, joint, coords=(0,))
        from hybridgibbs import da_hybrid

        S = da_exact(joint)
        Sh = da_hybrid(joint, spec)
        prof = Analysis(joint, spec=spec).inner_profile
        t = 4
        a_t = mean_power_bound(joint, prof, t)
        F, labels = function_battery(Sh, trials=0, seed=0)
        w = Sh.stationary.weights
        for k in range(F.shape[1]):
            f = F[:, k]
            r_h = float(w @ (f * (Sh.kernel.matrix @ f)))
            r_s = float(w @ (f * (S.kernel.matrix @ f)))
            assert labels[k]["kind"] == "eigenvector"
            assert r_h**t >= -1e-12
            assert r_h**t <= r_s + a_t + 1e-9

    def test_tstep_odd_requires_psd(self):
        from hybridgibbs.randomgen import random_explicit_spec

        joint = random_joint(81, sizes=(3, 3))
        spec = random_explicit_spec(82, joint, coords=(0,))
        with pytest.raises(PreconditionUnmet):
            Analysis(joint, spec=spec).da_tstep(t=3)

    def test_tstep_odd_allowed_when_psd(self):
        reps = Analysis(SKEWED, spec=ApproximatorSpec(default=Lazy(0.4))).da_tstep(t=3, trials=4)
        assert all_pass(reps)

    def test_variance_tstep_pass(self):
        reps = Analysis(SKEWED, spec=ApproximatorSpec(default=Lazy(0.3))).da_variance_tstep(t=4)
        assert len(reps) == 1 and reps[0].status == "pass"
        # alpha_4 = 0.3^4 = 0.0081, well under half the gap.
        assert reps[0].witness["alpha"] == pytest.approx(0.3**4, rel=1e-12)

    def test_variance_tstep_hypothesis_unmet(self):
        reps = Analysis(SKEWED, spec=ApproximatorSpec(default=Lazy(0.99))).da_variance_tstep(t=2)
        assert len(reps) == 1
        assert reps[0].status == "hypothesis_unmet"
        assert reps[0].lhs == pytest.approx(0.99**2, rel=1e-12)

    def test_random_sweep(self):
        for seed in range(40):
            rng = rng_from(seed + 200)
            d1 = int(rng.integers(2, 5))
            d2 = int(rng.integers(2, 5))
            joint = random_joint(rng, sizes=(d1, d2))
            spec = random_mixed_spec(rng, joint, coords=(0,))
            for t in (2, 4):
                assert min_slack(Analysis(joint, spec=spec).da_tstep(t=t, trials=8)) >= -1e-9


class TestBlockComparison:
    def test_three_coin_equality_case(self):
        joint = product_joint([[0.5, 0.5]] * 3)
        reps = Analysis(joint).block_comparison(2, 1, trials=8)
        gap_lower = next(r for r in reps if r.name == "block-gap-lower")
        assert gap_lower.witness["c1"] == pytest.approx(0.5, abs=1e-12)
        # c1 * (1 - |T_2|) = 0.5 * (2/3) = 1/3 = 1 - |T_1| exactly.
        assert abs(gap_lower.slack) < 1e-10
        assert all_pass(reps)

    def test_invalid_sizes(self):
        joint = product_joint([[0.5, 0.5]] * 3)
        with pytest.raises(InvalidBlockSize):
            Analysis(joint).block_comparison(2, 2)
        with pytest.raises(InvalidBlockSize):
            Analysis(joint).block_comparison(3, 1)

    def test_random_sweep(self):
        for seed in range(20):
            joint = random_joint(seed + 300, sizes=(2, 2, 3))
            reps = Analysis(joint, seed=seed).block_comparison(2, 1, trials=8)
            assert min_slack(r for r in reps if r.status != "hypothesis_unmet") >= -1e-9


def loop_c1(joint, ell, m):
    """c1 and c1_at of ``block_comparison(ell, m)``, one inner block chain
    at a time: the first least inner Dirichlet-ratio minimum in (block,
    complement) order."""
    c1, at = np.inf, None
    for coords in combinations(range(joint.space.ncoords), ell):
        for y in joint.space.complement_configs(coords):
            if joint.weights[joint.space.subspace_indices(coords, y)].sum() <= 0.0:
                continue
            rmin = 1.0 - spectral_summary(inner_block_kernel(joint, coords, y, m)).lambda_max
            if rmin < c1:
                c1, at = rmin, {"block": list(coords), "complement": list(y)}
    return c1, at


def holed(seed, sizes):
    """A random joint with about a fifth of its states at weight zero and a
    tenth at 1e-16, below NULL_MASS."""
    rng = rng_from(seed)
    w = np.array(random_joint(seed, sizes=sizes).weights)
    w[rng.random(w.size) < 0.2] = 0.0
    w[rng.random(w.size) < 0.1] = 1e-16
    return joint_from_weights(sizes, w)


@pytest.mark.parametrize("sizes", [(2, 3, 2), (3, 3, 3), (2, 2, 2, 2), (2, 3, 2, 2)], ids=str)
@pytest.mark.parametrize("kind", ["positive", "holed"])
@pytest.mark.parametrize("seed", [0, 1])
def test_stacked_c1_equals_the_inner_kernel_loop(sizes, kind, seed):
    # Bit for bit, also where a slice has a state below NULL_MASS and is
    # decomposed on its own.
    if kind == "positive":
        joint = random_joint(400 + seed, sizes=sizes)
    else:
        joint = holed(410 + seed, sizes)
    n = joint.space.ncoords
    for ell in range(2, n):
        for m in range(1, ell):
            reps = Analysis(joint).block_comparison(ell, m, trials=2)
            witness = next(r for r in reps if r.name == "block-gap-lower").witness
            c1, at = loop_c1(joint, ell, m)
            assert (witness["c1"], witness["c1_at"]) == (c1, at), (ell, m)


class TestSelectionReweighting:
    def test_equal_probs_reduce_to_weaker_sandwich(self):
        spec = ApproximatorSpec(default=Lazy(0.2))
        reps = Analysis(SKEWED, [0.5, 0.5], spec).selection_reweighting([0.5, 0.5])
        transfer = next(r for r in reps if r.name == "selection-hybrid-transfer")
        assert transfer.witness["b"] == pytest.approx(1.0, abs=1e-12)
        assert all_pass(reps)

    def test_two_coin_spec_example(self):
        spec = ApproximatorSpec(default=Lazy(0.2))
        reps = Analysis(TWO_COINS, [0.5, 0.5], spec).selection_reweighting([0.75, 0.25])
        assert all_pass(reps)

    def test_zero_prob_rejected(self):
        with pytest.raises(ZeroSelectionProb):
            Analysis(SKEWED, [1.0, 0.0], ApproximatorSpec()).selection_reweighting([0.5, 0.5])

    def test_random_sweep(self):
        for seed in range(25):
            rng = rng_from(seed + 400)
            joint = random_joint(rng)
            n = joint.space.ncoords
            p = rng.random(n) + 0.2
            p_alt = rng.random(n) + 0.2
            spec = random_mixed_spec(rng, joint)
            reps = Analysis(joint, p, spec).selection_reweighting(p_alt)
            assert min_slack(r for r in reps if r.status != "hypothesis_unmet") >= -1e-9


class TestUniformPowerBound:
    def test_exact_t1_equality(self):
        reps = Analysis(SKEWED, None, ApproximatorSpec()).uniform_tstep_bound(t=1)
        lower = next(r for r in reps if r.name == "uniform-power-lower")
        assert abs(lower.slack) < 1e-12
        assert all_pass(reps)

    def test_nonuniform_rejected(self):
        with pytest.raises(NonUniformSelection):
            Analysis(SKEWED, [0.7, 0.3], ApproximatorSpec()).uniform_tstep_bound(t=2)

    def test_dominated_by_sandwich_bound(self):
        spec = ApproximatorSpec(default=Lazy(0.5))
        for t in (1, 2, 3, 4):
            reps = Analysis(SKEWED, None, spec).uniform_tstep_bound(t=t)
            dom = next(r for r in reps if r.name == "uniform-power-dominated")
            assert dom.status in ("pass", "hypothesis_unmet")
            if dom.status == "pass":
                assert dom.slack >= -1e-12


    def test_large_t_gives_zero_not_an_overflow(self):
        # n^(t-1) = 2^1999 is no float: the bound is 0 there.
        config = canonicalize(
            {"model": {"kind": "product", "factors": [[1, 1], [1, 1]]}, "t": [2000]}
        )
        reports = {r.name: r for r in run_suite(config).reports}
        assert reports["uniform-power-lower-t2000"].lhs == 0.0
        assert reports["uniform-power-lower-t2000"].status == "pass"

    def test_bound_divides_by_the_exact_power(self):
        joint = random_joint(3, sizes=(2, 3, 2))
        spec = ApproximatorSpec(default=Lazy(0.4))
        for t in range(1, 12):
            analysis = Analysis(joint, None, spec)
            lower = analysis.uniform_tstep_bound(t=t)[0]
            C = analysis.quality.max_norm
            raw = 1.0 - spectral_summary(analysis.T).operator_norm - C**t
            assert lower.lhs == raw / 3 ** (t - 1)


class TestSliceTstep:
    def test_exact_levels_trivial(self):
        model = SliceModel(density=np.array([2.0, 1.0]), level_kernels=(Exact(), Exact()))
        reps = Analysis(model).slice_tstep(t=2)
        assert all_pass(reps)
        upper = next(r for r in reps if r.name == "slice-tstep-upper")
        assert abs(upper.slack) < 1e-12

    def test_lazy_levels(self):
        model = SliceModel(
            density=np.array([2.0, 1.0]), level_kernels=(Lazy(0.5), Lazy(0.9))
        )
        for t in (2, 4, 6):
            assert all_pass(Analysis(model).slice_tstep(t=t))

    def test_odd_t_requires_psd_levels(self):
        # Level 1 covers all three points; level 2 is the two top points,
        # where the flip kernel has eigenvalue -1 (not psd).
        flip = np.array([[0.0, 1.0], [1.0, 0.0]])
        model = SliceModel(
            density=np.array([2.0, 2.0, 1.0]),
            level_kernels=(Exact(), flip),
        )
        with pytest.raises(PreconditionUnmet):
            Analysis(model).slice_tstep(t=3)
        assert all_pass(Analysis(model).slice_tstep(t=2))

    @staticmethod
    def count_level_kernels(monkeypatch):
        """Count the level kernels built by rule."""
        built = []

        def counting(target, rule, key=None):
            built.append(key)
            return kernel_for_target(target, rule, key)

        monkeypatch.setattr(slicemodel, "kernel_for_target", counting)
        return built

    def test_each_level_kernel_decomposed_once(self, eig_counts, monkeypatch):
        built = self.count_level_kernels(monkeypatch)
        model = SliceModel(np.array([3.0, 1.0, 2.0, 3.0]), (Lazy(0.35),) * 3)
        # One Lazy eps at every level: the hybrid chain is affine in the
        # exact one, so its one solve serves both, and no level kernel is
        # built.
        Analysis(model).slice_tstep(t=2)
        assert sorted(eig_counts["eigh"].elements()) == [4]
        eig_counts["eigh"].clear()
        # The DA t-step check reads the hybrid chain's battery and its norm
        # from one decomposition.
        Analysis(model).da_tstep(t=2)
        assert sorted(eig_counts["eigh"].elements()) == [4]
        assert not eig_counts["eigvalsh"]
        assert built == []

    def test_other_level_rules_decomposed_once(self, eig_counts, monkeypatch):
        built = self.count_level_kernels(monkeypatch)
        model = SliceModel(
            np.array([3.0, 1.0, 2.0, 3.0]), (Lazy(0.35), MetropolisRW(1), Lazy(0.35))
        )
        # The MetropolisRW level (size 3) is solved for its quality, and the
        # exact and hybrid chains once each; the Lazy levels are in closed
        # form.
        Analysis(model).slice_tstep(t=2)
        assert sorted(eig_counts["eigh"].elements()) == [3, 4, 4]
        eig_counts["eigh"].clear()
        Analysis(model).da_tstep(t=2)
        assert sorted(eig_counts["eigh"].elements()) == [3, 4, 4]
        assert not eig_counts["eigvalsh"]
        # Each of the two analyses builds the hybrid chain from every level
        # kernel, and the quality table from the MetropolisRW level's alone.
        assert sorted(built) == [("level", 0)] * 2 + [("level", 1)] * 4 + [("level", 2)] * 2


class TestHundredModelSweeps:
    """Each checker passes over 100 randomized models within its preconditions."""

    def test_da_gap_sandwich_sweep(self):
        for seed in range(100):
            rng = rng_from(seed + 500)
            joint = random_joint(rng, sizes=(int(rng.integers(2, 5)), int(rng.integers(2, 5))))
            spec = random_mixed_spec(rng, joint, coords=(0,))
            assert min_slack(Analysis(joint, spec=spec).da_gap_sandwich()) >= -1e-9

    def test_variance_sandwich_sweep(self):
        done = 0
        for seed in range(130):
            if done == 100:
                break
            joint = random_joint(seed + 900)
            spec = random_lazy_spec(seed + 901, joint, eps_range=(0.0, 0.8))
            reps = Analysis(joint, None, spec, seed=seed).variance_sandwich(trials=6)
            assert min_slack(reps) >= -1e-9
            done += 1
        assert done == 100

    def test_variance_sandwich_lazy_tight_both_sides(self):
        # With a single lazy rule, c1 = c2 and the variance transform is an
        # exact per-mode identity, so both halves are equalities.
        for seed in range(5):
            joint = random_joint(seed + 950)
            reps = Analysis(
                joint, None, ApproximatorSpec(default=Lazy(0.4)), seed=seed
            ).variance_sandwich(trials=4)
            assert max(abs(r.slack) for r in reps) < 1e-8

    def test_da_variance_tstep_sweep(self):
        met = 0
        for seed in range(100):
            rng = rng_from(seed + 1500)
            joint = random_joint(rng, sizes=(int(rng.integers(2, 5)), int(rng.integers(2, 5))))
            spec = random_mixed_spec(rng, joint, coords=(0,), lazy_prob=0.7)
            reps = Analysis(joint, spec=spec, seed=seed).da_variance_tstep(t=2, trials=6)
            certified = [r for r in reps if r.status != "hypothesis_unmet"]
            if certified:
                met += 1
                assert min_slack(certified) >= -1e-9
        assert met >= 50

    def test_selection_reweighting_sweep(self):
        for seed in range(100):
            rng = rng_from(seed + 2500)
            joint = random_joint(rng)
            n = joint.space.ncoords
            p = rng.random(n) + 0.1
            p_alt = rng.random(n) + 0.1
            spec = random_mixed_spec(rng, joint)
            reps = Analysis(joint, p, spec).selection_reweighting(p_alt)
            certified = [r for r in reps if r.status != "hypothesis_unmet"]
            assert min_slack(certified) >= -1e-9

    def test_slice_tstep_sweep(self):
        from hybridgibbs.randomgen import random_slice_model

        for seed in range(100):
            model = random_slice_model(seed + 3500)
            for t in (2, 4):
                reps = Analysis(model).slice_tstep(t)
                assert min_slack(reps) >= -1e-9

    def test_dirichlet_and_gap_sweep(self):
        for seed in range(100):
            joint = random_joint(seed + 4500)
            spec = random_mixed_spec(seed + 4501, joint)
            assert min_slack(
                Analysis(joint, None, spec, seed=seed).dirichlet_sandwich(trials=8)
            ) >= -1e-9
            assert min_slack(Analysis(joint, None, spec).gap_sandwich()) >= -1e-9


class TestBatteryMeanZero:
    LAZY_ONE = {
        "model": {"kind": "random", "sizes": [4, 3], "seed": 3},
        "approximator": {"default": {"rule": "lazy", "epsilon": 1.0}},
        "suite": ["da"],
    }

    def test_repeated_eigenvalue_one_is_projected(self):
        # Every inner kernel is Lazy(1), so the hybrid DA chain is the
        # identity and eigenvalue 1 fills the whole space.
        config = canonicalize(self.LAZY_ONE)
        Sh = Analysis(config.build_joint(), spec=config.approximator_spec()).Sh
        np.testing.assert_allclose(Sh.kernel.matrix, np.eye(4), atol=1e-15)
        F, labels = function_battery(Sh, trials=8, seed=0)
        w = Sh.stationary.weights
        assert np.abs(w @ F).max() <= 1e-12
        np.testing.assert_allclose(np.einsum("i,ij,ij->j", w, F, F), 1.0, rtol=1e-12)
        assert sum(label["kind"] == "eigenvector" for label in labels) == 3
        # The eigenvector columns span the mean-zero functions.
        eig = F[:, [k for k, label in enumerate(labels) if label["kind"] == "eigenvector"]]
        assert np.linalg.matrix_rank(eig) == 3
        # Before the projection the least slack was 1.0063621310043438.
        reports = run_suite(config).reports
        functional = next(r for r in reports if r.name == "da-tstep-functional-t2")
        assert functional.rhs <= 1.0063621310043438

    def test_simple_eigenvalue_one_keeps_the_eigenvectors(self):
        T = exact_random_scan(random_joint(91, sizes=(3, 4)))
        keep, _dropped, _ws, d, _vals, vecs, k0, _asym = T._eigs
        F, labels = function_battery(T, trials=0, seed=0)
        want = np.delete(vecs, k0, axis=1) / d[:, None]
        assert keep.size == T.n
        assert np.array_equal(F, want)
