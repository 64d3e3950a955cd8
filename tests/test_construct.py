"""Kernel builders: random scan, hybrid scan, blocks, data augmentation, slice."""

import warnings
from itertools import combinations
from math import comb

import numpy as np
import pytest

from hybridgibbs import (
    Analysis,
    ApproximatorSpec,
    approx_quality,
    canonicalize,
    Exact,
    ExplicitMatrix,
    Lazy,
    MetropolisIndep,
    MetropolisRW,
    SliceModel,
    block_random_scan,
    check_reversibility,
    da_exact,
    da_hybrid,
    exact_random_scan,
    hybrid_random_scan,
    inner_block_kernel,
    joint_from_weights,
    make_approximator,
    product_joint,
    run_suite,
    slice_exact,
    slice_hybrid,
    spectral_summary,
)
from hybridgibbs.errors import (
    InvalidBlockSize,
    InvalidDistribution,
    InvalidKernel,
    InvalidSpec,
    MissingLevelKernel,
    NonPositiveWeight,
    NotReversible,
    NotTwoBlock,
)
from hybridgibbs.approximators import RULE_TYPES, kernel_for_target
from hybridgibbs.bounds import _entry
from hybridgibbs.gibbs import _two_block_parts
from hybridgibbs.randomgen import (
    random_explicit_spec,
    random_joint,
    random_lazy_spec,
    random_slice_model,
    rng_from,
)

TWO_COINS = product_joint([[0.5, 0.5], [0.5, 0.5]])
THREE_COINS = product_joint([[0.5, 0.5]] * 3)
SKEWED = joint_from_weights((2, 2), [0.1, 0.2, 0.3, 0.4])


def brute_random_scan(joint, p=None):
    """Literal formula: T(x, x') = sum_i p_i cond_i(x'_i | x_-i) [x'_-i = x_-i]."""
    sp = joint.space
    n = sp.total
    ncoords = sp.ncoords
    p = [1.0 / ncoords] * ncoords if p is None else list(p)
    T = np.zeros((n, n))
    W = joint.weights
    for x in range(n):
        cx = sp.decode(x)
        for xp in range(n):
            cxp = sp.decode(xp)
            for i in range(ncoords):
                if any(cx[j] != cxp[j] for j in range(ncoords) if j != i):
                    continue
                sl = [0.0] * sp.sizes[i]
                for v in range(sp.sizes[i]):
                    cfg = list(cx)
                    cfg[i] = v
                    sl[v] = W[sp.encode(cfg)]
                tot = sum(sl)
                T[x, xp] += p[i] * (sl[cxp[i]] / tot if tot > 0 else float(cx[i] == cxp[i]))
    return T


def tiled_random_scan(joint, p=None):
    """Random-scan kernel accumulated slice by slice from tiled conditionals,
    coordinate by coordinate: the bitwise reference for exact_random_scan."""
    sel = np.full(joint.space.ncoords, 1.0) if p is None else np.asarray(p, dtype=float)
    sel = sel / sel.sum()
    T = np.zeros((joint.n, joint.n))
    for i, pi in enumerate(sel):
        for y in joint.space.complement_configs((i,)):
            idx = joint.space.subspace_indices((i,), y)
            slice_w = joint.weights[idx]
            total = slice_w.sum()
            if total <= 0.0:
                block = np.eye(idx.size)
            else:
                target = slice_w / total
                block = np.tile(target, (target.size, 1))
            T[np.ix_(idx, idx)] += pi * block
    return T


def level_set_slice_chain(model, moves):
    """S = D^{-1} sum_k (v_k - v_{k-1}) embed_{G_k}(Q_k), assembled on the
    level sets: the reference for the slice chains.  ``moves`` yields Q_k in
    ascending k, as a matrix or a scalar."""
    S = np.zeros((model.n, model.n))
    lengths = np.diff(model.levels, prepend=0.0)
    for members, length, move in zip(model.level_sets, lengths, moves):
        S[np.ix_(members, members)] += length * move
    return S / model.density[:, None]


def level_moves(model):
    """Each level's kernel matrix, from its rule or as given."""
    for k, (members, entry) in enumerate(zip(model.level_sets, model.level_kernels)):
        if isinstance(entry, RULE_TYPES):
            yield kernel_for_target(np.full(members.size, 1.0 / members.size), entry, key=("level", k))
        else:
            yield np.asarray(entry, dtype=float)


class TestApproximators:
    def test_exact_is_independence_kernel(self):
        q = make_approximator(SKEWED, ApproximatorSpec(), 0, (1,))
        assert spectral_summary(q).operator_norm == pytest.approx(0.0, abs=1e-12)

    def test_lazy_norm_and_psd(self):
        spec = ApproximatorSpec(default=Lazy(0.2))
        q = make_approximator(SKEWED, spec, 0, (0,))
        s = spectral_summary(q)
        assert s.operator_norm == pytest.approx(0.2, abs=1e-12)
        assert s.psd

    def test_metropolis_rw_uniform_two_states(self):
        spec = ApproximatorSpec(default=MetropolisRW(1))
        q = make_approximator(TWO_COINS, spec, 0, (0,))
        np.testing.assert_allclose(q.kernel.matrix, [[0.5, 0.5], [0.5, 0.5]])

    def test_metropolis_rw_reversible_on_skewed_target(self):
        joint = joint_from_weights((5,), [0.1, 0.3, 0.2, 0.25, 0.15])
        spec = ApproximatorSpec(default=MetropolisRW(2))
        q = make_approximator(joint, spec, 0, ())
        assert q.reversibility_defect <= 1e-12

    @pytest.mark.parametrize("radius", [3, 4, 7, 10**5, 10**30])
    def test_metropolis_rw_radius_beyond_the_slice(self, radius):
        # From radius d - 1 = 3 on, every pair of states is one proposal
        # apart and every longer step falls off the end.
        pi = np.array([0.1, 0.3, 0.2, 0.4])
        want = np.minimum(1.0, pi[None, :] / pi[:, None]) / (2 * radius)
        np.fill_diagonal(want, 0.0)
        want[np.diag_indices(4)] = 1.0 - want.sum(axis=1)
        got = kernel_for_target(pi, MetropolisRW(radius))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        if radius < 10:
            np.testing.assert_allclose(got, loop_metropolis_rw(pi, radius), rtol=1e-15, atol=0.0)

    def test_metropolis_rw_any_radius_certifies(self):
        config = {
            "model": {"kind": "random", "sizes": [2, 3], "seed": 1},
            "approximator": {"default": {"rule": "metropolis_rw", "radius": 10**30}},
        }
        assert run_suite(canonicalize(config)).exit_status() == 0

    @pytest.mark.parametrize(
        "rule", [{"rule": "metropolis_rw", "radius": 1}, {"rule": "metropolis_indep"}]
    )
    def test_subnormal_conditional_mass_accepts_without_warning(self, rule):
        # Normalized, the weights are 1 and about 1e-309: the acceptance
        # ratio away from a subnormal state overflows to inf, and min(1, inf)
        # is 1.
        config = canonicalize(
            {
                "model": {"kind": "explicit", "sizes": [2, 2], "weights": [1e308, 0.1, 0.5, 1.0]},
                "approximator": {"default": rule},
            }
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_suite(config).exit_status() == 0
            th = hybrid_random_scan(config.build_joint(), None, config.approximator_spec())
        want = [
            [1.0, 2.5e-310, 1.25e-309, 0.0],
            [0.25, 0.5, 0.0, 0.25],
            [0.25, 0.0, 0.5, 0.25],
            [0.0, 0.025, 0.125, 0.85],
        ]
        np.testing.assert_allclose(th.kernel.matrix, want, rtol=1e-12, atol=1e-320)

    def test_metropolis_indep_reversible(self):
        spec = ApproximatorSpec(default=MetropolisIndep("uniform"))
        q = make_approximator(SKEWED, spec, 1, (1,))
        assert q.reversibility_defect <= 1e-12

    def test_explicit_matrix_validated(self):
        bad = {(0, (0,)): np.array([[0.0, 1.0], [1.0, 0.0]])}
        spec = ApproximatorSpec(default=ExplicitMatrix(bad))
        with pytest.raises(NotReversible):
            make_approximator(SKEWED, spec, 0, (0,))

    def test_explicit_matrix_missing_key(self):
        spec = ApproximatorSpec(default=ExplicitMatrix({}))
        with pytest.raises(InvalidSpec):
            make_approximator(SKEWED, spec, 0, (0,))

    def test_lazy_epsilon_range(self):
        with pytest.raises(InvalidSpec):
            Lazy(1.5)

    @pytest.mark.parametrize("eps", ["0.3", None, float("nan"), -0.1])
    def test_lazy_epsilon_is_a_number_in_range(self, eps):
        with pytest.raises(InvalidSpec, match="lazy epsilon must be a number in"):
            Lazy(eps)

    @pytest.mark.parametrize("proposal", [[[1, 1]], 3], ids=["matrix", "scalar"])
    def test_malformed_independence_proposal_is_a_named_error(self, proposal):
        analysis = Analysis(SKEWED, spec=ApproximatorSpec(default=MetropolisIndep(proposal)))
        with pytest.raises(InvalidDistribution, match="nonempty 1-d vector"):
            analysis.dirichlet_sandwich()

    def test_overrides(self):
        spec = ApproximatorSpec(default=Exact(), overrides={1: Lazy(0.5)})
        assert isinstance(spec.rule_for(0), Exact)
        assert isinstance(spec.rule_for(1), Lazy)


class TestExactRandomScan:
    def test_two_coins_norm_half(self):
        T = exact_random_scan(TWO_COINS)
        s = spectral_summary(T)
        assert s.operator_norm == pytest.approx(0.5, abs=1e-12)
        assert s.psd

    def test_matches_brute_force_formula(self):
        joint = random_joint(5, sizes=(3, 2, 2))
        T = exact_random_scan(joint, [0.5, 0.3, 0.2])
        np.testing.assert_allclose(
            T.kernel.matrix, brute_random_scan(joint, [0.5, 0.3, 0.2]), atol=1e-13
        )

    def test_single_coordinate_is_independence(self):
        joint = joint_from_weights((4,), [0.1, 0.2, 0.3, 0.4])
        T = exact_random_scan(joint, [1.0])
        assert spectral_summary(T).gap == pytest.approx(1.0, abs=1e-12)

    def test_skewed_psd_and_reversible(self):
        T = exact_random_scan(SKEWED)
        assert T.reversibility_defect <= 1e-12
        assert spectral_summary(T).psd

    @pytest.mark.parametrize(
        "joint, p",
        [
            (random_joint(1, sizes=(40, 40)), None),
            (random_joint(2, sizes=(8, 8, 8)), None),
            (random_joint(3, sizes=(5, 9)), (0.3, 0.7)),
            (random_joint(4, sizes=(3, 4, 2)), (1.0, 2.0, 3.0)),
            (joint_from_weights((2, 2), [0.5, 0.0, 0.0, 0.5]), None),
        ],
        ids=["40x40", "8x8x8", "5x9-p", "3x4x2-p", "2x2-zeros"],
    )
    def test_is_the_exact_spec_hybrid_scan_bit_for_bit(self, joint, p):
        T = exact_random_scan(joint, p).kernel.matrix
        assert np.array_equal(T, hybrid_random_scan(joint, p, ApproximatorSpec()).kernel.matrix)
        assert np.array_equal(T, tiled_random_scan(joint, p))

    def test_psd_on_random_joints(self):
        rng = rng_from(42)
        for k in range(100):
            joint = random_joint(rng, max_coords=4, max_size=4)
            assert spectral_summary(exact_random_scan(joint)).psd
            n = joint.space.ncoords
            if n >= 2:
                ell = int(rng.integers(1, n))
                assert spectral_summary(block_random_scan(joint, ell)).psd


class TestHybridRandomScan:
    def test_exact_spec_reproduces(self):
        joint = random_joint(9, sizes=(3, 3))
        T = exact_random_scan(joint)
        Th = hybrid_random_scan(joint, spec=ApproximatorSpec())
        np.testing.assert_allclose(Th.kernel.matrix, T.kernel.matrix, atol=1e-14)

    def test_lazy_affine_law(self):
        for eps in (0.1, 0.5, 0.9):
            joint = random_joint(11, sizes=(2, 3))
            T = exact_random_scan(joint).kernel.matrix
            Th = hybrid_random_scan(joint, spec=ApproximatorSpec(default=Lazy(eps)))
            np.testing.assert_allclose(
                Th.kernel.matrix, eps * np.eye(6) + (1 - eps) * T, atol=1e-12
            )
            gap = spectral_summary(exact_random_scan(joint)).gap
            gap_h = spectral_summary(Th).gap
            assert gap_h == pytest.approx((1 - eps) * gap, abs=1e-10)

    def test_mixed_spec_reversible_psd(self):
        spec = ApproximatorSpec(default=Exact(), overrides={0: Lazy(0.5)})
        Th = hybrid_random_scan(TWO_COINS, spec=spec)
        assert Th.reversibility_defect <= 1e-12
        assert spectral_summary(Th).psd


class TestBlockRandomScan:
    def test_three_coins_single_site(self):
        s = spectral_summary(block_random_scan(THREE_COINS, 1))
        assert s.operator_norm == pytest.approx(2 / 3, abs=1e-12)

    def test_three_coins_pair_update(self):
        s = spectral_summary(block_random_scan(THREE_COINS, 2))
        assert s.operator_norm == pytest.approx(1 / 3, abs=1e-12)

    def test_full_block_rejected(self):
        with pytest.raises(InvalidBlockSize):
            block_random_scan(THREE_COINS, 3)

    def test_single_site_matches_random_scan(self):
        joint = random_joint(15, sizes=(2, 2, 3))
        np.testing.assert_allclose(
            block_random_scan(joint, 1).kernel.matrix,
            exact_random_scan(joint).kernel.matrix,
            atol=1e-13,
        )

    def test_block_consistency_identity(self):
        # Averaging the inner kernels over uniformly chosen blocks of size
        # ell reproduces the m-coordinate block scan entrywise.
        from itertools import combinations

        joint = random_joint(23, sizes=(2, 3, 2))
        n = joint.space.ncoords
        ell, m = 2, 1
        T_alt = np.zeros((joint.n, joint.n))
        weight = 1.0 / comb(n, ell)
        for coords in combinations(range(n), ell):
            for y in joint.space.complement_configs(coords):
                idx = joint.space.subspace_indices(coords, y)
                if joint.weights[idx].sum() <= 0:
                    T_alt[np.ix_(idx, idx)] += weight * np.eye(idx.size)
                    continue
                inner = inner_block_kernel(joint, coords, y, m)
                T_alt[np.ix_(idx, idx)] += weight * inner.kernel.matrix
        np.testing.assert_allclose(
            T_alt, block_random_scan(joint, m).kernel.matrix, atol=1e-12
        )


class TestInnerBlockKernel:
    def test_independent_coins_inner_gap(self):
        joint = THREE_COINS
        q = inner_block_kernel(joint, (0, 1), (0,), 1)
        assert spectral_summary(q).gap == pytest.approx(0.5, abs=1e-12)

    def test_correlated_block_has_no_gap(self):
        diag = joint_from_weights((2, 2), [0.5, 0.0, 0.0, 0.5])
        q = inner_block_kernel(diag, (0, 1), (), 1)
        assert spectral_summary(q).gap == pytest.approx(0.0, abs=1e-12)

    def test_skewed_slice_reversible(self):
        q = inner_block_kernel(SKEWED, (0, 1), (), 1)
        assert q.reversibility_defect <= 1e-10

    def test_inner_size_bounds(self):
        with pytest.raises(InvalidBlockSize):
            inner_block_kernel(THREE_COINS, (0, 1), (0,), 2)


class TestDataAugmentation:
    def test_independent_marginal_kernel(self):
        S = da_exact(TWO_COINS)
        assert spectral_summary(S).operator_norm == pytest.approx(0.0, abs=1e-12)

    def test_skewed_matches_matrix_product_oracle(self):
        # fwd[y, z] = P(z | y), back[z, y'] = P(y' | z) written out by hand.
        fwd = np.array([[0.25, 0.75], [1 / 3, 2 / 3]])
        back = np.array([[1 / 3, 2 / 3], [3 / 7, 4 / 7]])
        S = da_exact(SKEWED)
        np.testing.assert_allclose(S.kernel.matrix, fwd @ back, atol=1e-14)
        d = np.sqrt(np.array([0.4, 0.6]))
        lam2 = np.linalg.eigvalsh(np.diag(d) @ (fwd @ back) @ np.diag(1.0 / d))[0]
        assert spectral_summary(S).operator_norm == pytest.approx(lam2, abs=1e-12)

    def test_fully_correlated_is_identity(self):
        diag = joint_from_weights((2, 2), [0.5, 0.0, 0.0, 0.5])
        S = da_exact(diag)
        assert spectral_summary(S).gap == pytest.approx(0.0, abs=1e-12)

    def test_requires_two_blocks(self):
        with pytest.raises(NotTwoBlock):
            da_exact(THREE_COINS)

    def test_hybrid_joint_needs_a_spec(self):
        with pytest.raises(InvalidSpec, match="spec is required"):
            da_hybrid(SKEWED)

    def test_hybrid_exact_spec(self):
        S = da_exact(SKEWED)
        Sh = da_hybrid(SKEWED, ApproximatorSpec())
        np.testing.assert_allclose(Sh.kernel.matrix, S.kernel.matrix, atol=1e-14)

    def test_hybrid_lazy_affine(self):
        eps = 0.3
        S = da_exact(SKEWED).kernel.matrix
        Sh = da_hybrid(SKEWED, ApproximatorSpec(default=Lazy(eps)))
        np.testing.assert_allclose(Sh.kernel.matrix, eps * np.eye(2) + (1 - eps) * S, atol=1e-14)
        gap = spectral_summary(da_exact(SKEWED)).gap
        assert spectral_summary(Sh).gap == pytest.approx((1 - eps) * gap, abs=1e-10)

    def test_hybrid_explicit_reversible(self):
        from hybridgibbs.randomgen import random_explicit_spec

        joint = random_joint(33, sizes=(3, 4))
        spec = random_explicit_spec(34, joint, coords=(0,))
        Sh = da_hybrid(joint, spec)
        assert Sh.reversibility_defect <= 1e-10

    def test_tstep_one_matches_hybrid(self):
        spec = random_lazy_spec(40, SKEWED)
        np.testing.assert_array_equal(
            da_hybrid(SKEWED, spec, t=1).kernel.matrix,
            da_hybrid(SKEWED, spec).kernel.matrix,
        )

    def test_tstep_lazy_square_oracle(self):
        # Squaring a lazy mixture: (eI + (1-e)P)^2 = e^2 I + (1-e^2) P when
        # P is the rank-one conditional kernel.
        eps = 0.4
        joint = random_joint(44, sizes=(3, 3))
        from hybridgibbs import conditional

        fwd = np.array(
            [conditional(joint, 1, (y,)).weights for y in range(3)]
        )
        expected = np.zeros((3, 3))
        for z in range(3):
            cond = conditional(joint, 0, (z,)).weights
            inner = eps**2 * np.eye(3) + (1 - eps**2) * np.tile(cond, (3, 1))
            expected += fwd[:, z : z + 1] * inner
        Sh2 = da_hybrid(joint, ApproximatorSpec(default=Lazy(eps)), t=2)
        np.testing.assert_allclose(Sh2.kernel.matrix, expected, atol=1e-13)

    def test_tstep_reversible_any_spec(self):
        from hybridgibbs.randomgen import random_mixed_spec

        joint = random_joint(55, sizes=(4, 3))
        spec = random_mixed_spec(56, joint, coords=(0,))
        Sh4 = da_hybrid(joint, spec, t=4)
        assert Sh4.reversibility_defect <= 1e-10


class TestSliceKernels:
    @pytest.mark.parametrize("seed", range(6))
    def test_two_block_parts_match_the_level_loop(self, seed):
        # Even seeds tie densities, odd seeds draw them all distinct.
        rng = rng_from(seed)
        n = int(rng.integers(1, 40))
        density = rng.integers(1, 6, size=n) * 0.7 if seed % 2 == 0 else rng.random(n) + 0.05
        model = SliceModel(density)
        _m1, fwd, back = _two_block_parts(model)
        lengths = np.diff(model.levels, prepend=0.0)
        want_fwd = np.zeros((model.n, model.nlevels))
        want_back = np.zeros((model.nlevels, model.n))
        for k, members in enumerate(model.level_sets):
            want_fwd[members, k] = lengths[k] / model.density[members]
            want_back[k, members] = 1.0 / members.size
        assert np.array_equal(fwd, want_fwd) and np.array_equal(back, want_back)

    def test_two_point_closed_form(self):
        S = slice_exact(SliceModel(density=np.array([2.0, 1.0])))
        np.testing.assert_allclose(S.kernel.matrix, [[0.75, 0.25], [0.5, 0.5]], atol=1e-12)
        s = spectral_summary(S)
        assert s.operator_norm == pytest.approx(0.25, abs=1e-10)
        assert s.gap == pytest.approx(0.75, abs=1e-10)

    def test_constant_density_single_level(self):
        S = slice_exact(SliceModel(density=np.array([3.0, 3.0, 3.0])))
        assert spectral_summary(S).gap == pytest.approx(1.0, abs=1e-12)

    def test_three_point_reversibility(self):
        S = slice_exact(SliceModel(density=np.array([3.0, 2.0, 1.0])))
        np.testing.assert_allclose(S.stationary.weights, [1 / 2, 1 / 3, 1 / 6], atol=1e-15)
        assert S.reversibility_defect <= 1e-12

    def test_hybrid_with_exact_levels_matches(self):
        model = SliceModel(
            density=np.array([2.0, 1.0]), level_kernels=(Exact(), Exact())
        )
        np.testing.assert_allclose(
            slice_hybrid(model).kernel.matrix,
            slice_exact(SliceModel(density=np.array([2.0, 1.0]))).kernel.matrix,
            atol=1e-14,
        )

    def test_hybrid_lazy_affine(self):
        eps = 0.35
        density = np.array([3.0, 1.0, 2.0, 3.0])
        model = SliceModel(density=density, level_kernels=(Lazy(eps),) * 3)
        S = slice_exact(SliceModel(density=density)).kernel.matrix
        Sh = slice_hybrid(model).kernel.matrix
        np.testing.assert_allclose(Sh, eps * np.eye(4) + (1 - eps) * S, atol=1e-13)

    def test_hand_integrated_hybrid(self):
        # Level 1 lazy(0.5) toward uniform on both points, level 2 identity
        # on the singleton top set: hand integration gives this matrix.
        model = SliceModel(
            density=np.array([2.0, 1.0]),
            level_kernels=(Lazy(0.5), np.array([[1.0]])),
        )
        np.testing.assert_allclose(
            slice_hybrid(model).kernel.matrix, [[0.875, 0.125], [0.25, 0.75]], atol=1e-14
        )

    def test_rejects_nonpositive_density(self):
        with pytest.raises(NonPositiveWeight):
            SliceModel(density=np.array([1.0, 0.0]))

    def test_level_kernel_count_checked(self):
        with pytest.raises(MissingLevelKernel):
            SliceModel(density=np.array([2.0, 1.0]), level_kernels=(Lazy(0.1),))

    def test_hybrid_needs_level_kernels(self):
        with pytest.raises(MissingLevelKernel):
            slice_hybrid(SliceModel(density=np.array([2.0, 1.0])))

    @staticmethod
    def point_level_joint(model):
        """The joint of (point, level): weight v_k - v_{k-1} at index y + n k
        when density(y) > v_{k-1}, zero otherwise."""
        n, L = model.n, model.nlevels
        lower = np.concatenate(([0.0], model.levels[:-1]))
        w = np.zeros(n * L)
        for k in range(L):
            for y in range(n):
                if model.density[y] > lower[k]:
                    w[y + n * k] = model.levels[k] - lower[k]
        return joint_from_weights((n, L), w)

    def test_slice_chains_are_point_level_da_chains(self):
        for seed in range(20):
            model = random_slice_model(seed, with_kernels=False)
            joint = self.point_level_joint(model)
            np.testing.assert_allclose(
                da_exact(joint).kernel.matrix, slice_exact(model).kernel.matrix, rtol=0, atol=1e-14
            )
            lazy = SliceModel(model.density, (Lazy(0.37),) * model.nlevels)
            np.testing.assert_allclose(
                da_hybrid(joint, ApproximatorSpec(default=Lazy(0.37))).kernel.matrix,
                slice_hybrid(lazy).kernel.matrix,
                rtol=0,
                atol=1e-14,
            )

    def test_slice_chains_match_level_set_assembly(self):
        kinds = set()
        for seed in range(30):
            model = random_slice_model(seed + 900)
            kinds.update(isinstance(e, Lazy) for e in model.level_kernels)
            exact = level_set_slice_chain(model, (1.0 / m.size for m in model.level_sets))
            hybrid = level_set_slice_chain(model, level_moves(model))
            np.testing.assert_allclose(slice_exact(model).kernel.matrix, exact, rtol=0, atol=1e-14)
            np.testing.assert_allclose(slice_hybrid(model).kernel.matrix, hybrid, rtol=0, atol=1e-14)
        assert kinds == {True, False}

    def test_da_quality_has_one_entry_per_level(self):
        model = random_slice_model(7, max_points=8)
        qual = Analysis(model).da_quality
        assert sorted(qual.per_conditional) == [(0, (k,)) for k in range(model.nlevels)]
        norms = [
            spectral_summary(check_reversibility(Q, np.full(len(Q), 1.0))).operator_norm
            for Q in level_moves(model)
        ]
        assert qual.max_norm == pytest.approx(max(norms), abs=1e-12)


# ---------------------------------------------------------------------------
# Reference loops: the kernels built one slice and one entry at a time, as
# the stacked builders replaced them.  The stacked chains must equal them
# bit for bit.
# ---------------------------------------------------------------------------


def loop_metropolis_rw(pi, radius):
    d = pi.size
    Q = np.zeros((d, d))
    prop = 1.0 / (2 * radius)
    for x in range(d):
        stay = 0.0
        for step in range(-radius, radius + 1):
            if step == 0:
                continue
            y = x + step
            if y < 0 or y >= d:
                stay += prop
                continue
            if pi[x] > 0.0:
                acc = min(1.0, pi[y] / pi[x])
            else:
                acc = 1.0 if pi[y] > 0.0 else 0.0
            Q[x, y] = prop * acc
            stay += prop * (1.0 - acc)
        Q[x, x] = stay
    return Q


def loop_metropolis_indep(pi, q):
    d = pi.size
    Q = np.zeros((d, d))
    for x in range(d):
        stay = 0.0
        for y in range(d):
            if y == x:
                continue
            num = pi[y] * q[x]
            den = pi[x] * q[y]
            if den > 0.0:
                acc = min(1.0, num / den)
            else:
                acc = 1.0 if num > 0.0 else 0.0
            Q[x, y] = q[y] * acc
            stay += q[y] * (1.0 - acc)
        Q[x, x] = q[x] + stay
    return Q


def loop_kernel(pi, rule, key):
    d = pi.size
    if isinstance(rule, Exact):
        return np.tile(pi, (d, 1))
    if isinstance(rule, Lazy):
        eps = float(rule.epsilon)
        return eps * np.eye(d) + (1.0 - eps) * np.tile(pi, (d, 1))
    if isinstance(rule, MetropolisRW):
        return loop_metropolis_rw(pi, int(rule.radius))
    if isinstance(rule, MetropolisIndep):
        if isinstance(rule.proposal, str):
            q = np.full(d, 1.0 / d)
        else:
            q = np.asarray(rule.proposal, float)
            q = q / q.sum()
        return loop_metropolis_indep(pi, q)
    return np.asarray(rule.tables[key], dtype=float)


def loop_accumulate(joint, T, weight, coords, inner):
    """Add ``weight`` times the coords-update kernel to T, one slice at a
    time; ``inner(y, target)`` is the update on a slice of positive mass,
    and a null slice gets the identity."""
    for y in joint.space.complement_configs(coords):
        idx = joint.space.subspace_indices(coords, y)
        slice_w = joint.weights[idx]
        total = slice_w.sum()
        if total <= 0.0:
            block = np.eye(idx.size)
        else:
            block = inner(y, slice_w / total)
        T[np.ix_(idx, idx)] += weight * block


def loop_random_scan(joint, p, spec):
    sel = np.full(joint.space.ncoords, 1.0) if p is None else np.asarray(p, dtype=float)
    sel = sel / sel.sum()
    T = np.zeros((joint.n, joint.n))
    for i, pi in enumerate(sel):
        rule = spec.rule_for(i)
        loop_accumulate(
            joint, T, pi, (i,), lambda y, target, i=i, rule=rule: loop_kernel(target, rule, (i, y))
        )
    return check_reversibility(T, joint.dist).kernel.matrix


def loop_block_scan(joint, ell):
    n = joint.space.ncoords
    T = np.zeros((joint.n, joint.n))
    for coords in combinations(range(n), ell):
        loop_accumulate(
            joint,
            T,
            1.0 / comb(n, ell),
            coords,
            lambda y, target: np.tile(target, (target.size, 1)),
        )
    return check_reversibility(T, joint.dist).kernel.matrix


def loop_da_hybrid(joint, spec):
    """The hybrid DA chain with each inner kernel paired on its own, added
    over z in order."""
    m1, fwd = _two_block_parts(joint)[:2]
    m2 = joint.weights.reshape(joint.space.sizes, order="F").sum(axis=0)
    S = np.zeros((m1.n, m1.n))
    for z in range(joint.space.sizes[1]):
        if m2[z] > 0.0:
            S += fwd[:, z : z + 1] * make_approximator(joint, spec, 0, (z,)).kernel.matrix
    for y in np.flatnonzero(m1.weights <= 0.0):
        S[y] = 0.0
        S[y, y] = 1.0
    return check_reversibility(S, m1).kernel.matrix


def _holed_joint(seed, sizes, holes):
    """A random joint with the states matching any of ``holes`` (dicts of
    coordinate values) set to weight zero."""
    joint = random_joint(seed, sizes=sizes)
    w = np.array(joint.weights)
    for x in range(joint.n):
        cfg = joint.space.decode(x)
        if any(all(cfg[c] == v for c, v in hole.items()) for hole in holes):
            w[x] = 0.0
    return joint_from_weights(sizes, w)


STACK_JOINTS = {
    "positive": random_joint(61, sizes=(3, 4, 2)),
    # Coordinate 0 has a null slice at (x1, x2) = (2, 0); the block {1, 2}
    # has a null slice at x0 = 1; other slices hold zero-weight states.
    "null-slice": _holed_joint(62, (3, 4, 2), [{1: 2, 2: 0}, {0: 1}]),
    "zero-state": _holed_joint(63, (3, 4, 2), [{0: 1, 1: 3, 2: 1}]),
    "two-null-slice": _holed_joint(64, (4, 3), [{1: 1}, {0: 2, 1: 0}]),
    "two-positive": random_joint(65, sizes=(5, 3)),
}


def stack_spec(name, joint):
    sizes = joint.space.sizes
    rng = rng_from(66)
    if name == "indep-vector":
        return ApproximatorSpec(
            default=MetropolisIndep("uniform"),
            overrides={i: MetropolisIndep(tuple(rng.random(d) + 0.1)) for i, d in enumerate(sizes)},
        )
    if name == "explicit":
        return random_explicit_spec(67, joint)
    rules = {
        "exact": Exact(),
        "lazy": Lazy(0.3),
        "rw1": MetropolisRW(1),
        "rw2": MetropolisRW(2),
        "indep-uniform": MetropolisIndep("uniform"),
    }
    return ApproximatorSpec(default=rules[name])


STACK_SPECS = ["exact", "lazy", "rw1", "rw2", "indep-uniform", "indep-vector", "explicit"]


class TestStackedTables:
    @pytest.mark.parametrize("joint_name", sorted(STACK_JOINTS))
    @pytest.mark.parametrize("spec_name", STACK_SPECS)
    def test_chains_match_the_slice_loop(self, joint_name, spec_name):
        joint = STACK_JOINTS[joint_name]
        spec = stack_spec(spec_name, joint)
        n = joint.space.ncoords
        for p in (None, tuple(range(1, n + 1))):
            analysis = Analysis(joint, p, spec)
            want_T = loop_random_scan(joint, p, ApproximatorSpec())
            want_Th = loop_random_scan(joint, p, spec)
            assert np.array_equal(analysis.T.kernel.matrix, want_T)
            assert np.array_equal(exact_random_scan(joint, p).kernel.matrix, want_T)
            assert np.array_equal(analysis.Th.kernel.matrix, want_Th)
            assert np.array_equal(hybrid_random_scan(joint, p, spec).kernel.matrix, want_Th)
        for ell in range(1, n):
            block = block_random_scan(joint, ell).kernel.matrix
            assert np.array_equal(block, loop_block_scan(joint, ell))
        if n == 2:
            want_Sh = loop_da_hybrid(joint, spec)
            assert np.array_equal(Analysis(joint, spec=spec).Sh.kernel.matrix, want_Sh)
            assert np.array_equal(da_hybrid(joint, spec).kernel.matrix, want_Sh)

    @pytest.mark.parametrize("joint_name", sorted(STACK_JOINTS))
    @pytest.mark.parametrize("spec_name", STACK_SPECS)
    def test_quality_entries_match_each_approximator(self, joint_name, spec_name):
        joint = STACK_JOINTS[joint_name]
        spec = stack_spec(spec_name, joint)
        table = Analysis(joint, spec=spec).quality.per_conditional
        want = {}
        for i in range(joint.space.ncoords):
            for y in joint.space.complement_configs((i,)):
                idx = joint.space.subspace_indices((i,), y)
                if joint.weights[idx].sum() <= 0.0:
                    continue
                pair = make_approximator(joint, spec, i, y)
                target = pair.stationary.weights
                loop = loop_kernel(target, spec.rule_for(i), (i, y))
                assert np.array_equal(pair.kernel.matrix, np.maximum(loop, 0.0))
                if isinstance(spec.rule_for(i), Exact):
                    want[(i, y)] = {"norm": 0.0, "ratio_min": 1.0, "ratio_max": 1.0, "psd": True}
                else:
                    want[(i, y)] = _entry(spectral_summary(pair))
        assert list(table) == list(want)
        assert table == want
        assert approx_quality(joint, spec).per_conditional == want

    def test_one_bad_slice_raises_its_own_error(self):
        joint = random_joint(71, sizes=(3, 4))
        tables = dict(random_explicit_spec(72, joint).default.tables)
        # A stochastic cycle on slice (0, (2,)) only: not reversible.
        tables[(0, (2,))] = np.roll(np.eye(3), 1, axis=1)
        spec = ApproximatorSpec(default=ExplicitMatrix(tables))
        with pytest.raises(NotReversible) as want:
            make_approximator(joint, spec, 0, (2,))
        for build in (
            lambda: Analysis(joint, spec=spec).quality,
            lambda: Analysis(joint, spec=spec).Th,
            lambda: Analysis(joint, spec=spec).Sh,
            lambda: approx_quality(joint, spec),
            lambda: hybrid_random_scan(joint, None, spec),
            lambda: da_hybrid(joint, spec),
        ):
            with pytest.raises(NotReversible) as got:
                build()
            assert str(got.value) == str(want.value)
            assert got.value.pair == want.value.pair

    def test_bad_row_sums_raise_the_kernel_error(self):
        joint = random_joint(73, sizes=(3, 4))
        tables = dict(random_explicit_spec(74, joint).default.tables)
        tables[(1, (1,))] = np.full((4, 4), 0.2)
        spec = ApproximatorSpec(default=ExplicitMatrix(tables))
        with pytest.raises(InvalidKernel) as want:
            make_approximator(joint, spec, 1, (1,))
        with pytest.raises(InvalidKernel) as got:
            Analysis(joint, spec=spec).quality
        assert str(got.value) == str(want.value)

    def test_missing_key_is_named(self):
        joint = random_joint(75, sizes=(3, 4))
        tables = dict(random_explicit_spec(76, joint).default.tables)
        del tables[(1, (1,))]
        spec = ApproximatorSpec(default=ExplicitMatrix(tables))
        for build in (
            lambda: Analysis(joint, spec=spec).quality,
            lambda: Analysis(joint, spec=spec).Th,
            lambda: hybrid_random_scan(joint, spec=spec),
        ):
            with pytest.raises(InvalidSpec, match=r"no explicit kernel supplied for \(1, \(1,\)\)"):
                build()
