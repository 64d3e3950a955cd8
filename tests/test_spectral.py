"""Core spectral operations against hand-computed and brute-force oracles."""

import importlib.util
import time
from math import prod
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridgibbs import (
    ApproximatorSpec,
    Exact,
    FunctionVec,
    Lazy,
    MetropolisRW,
    ProbVec,
    SliceModel,
    StochasticKernel,
    asymptotic_variance,
    check_reversibility,
    conditional,
    da_hybrid,
    exact_random_scan,
    hybrid_random_scan,
    joint_from_weights,
    spectral_jensen_check,
    spectral_summary,
)
from hybridgibbs.errors import (
    DimensionMismatch,
    HybridGibbsError,
    InvalidArgument,
    InvalidDistribution,
    InvalidKernel,
    NoSpectralGap,
    NotReversible,
    PreconditionUnmet,
    ZeroFunction,
)
from hybridgibbs.gibbs import ConditionalTable, _scan_root
from hybridgibbs.randomgen import random_joint, random_probvec, random_reversible_kernel, rng_from
from hybridgibbs.bounds import dirichlet_forms, function_battery, quadratic_forms
from hybridgibbs.spectral import (
    _SYM_BLOCK,
    UNIT_TOL,
    _cholesky_solve,
    _powers,
    _restrict,
    _symmetrize,
    _symmetrized,
    affine,
    checked_stack,
    eigvals_summary,
    gram_factor,
    variances,
)

TWO_STATE = [[0.7, 0.3], [0.3, 0.7]]
UNIFORM2 = [0.5, 0.5]


def pair(K, w):
    return check_reversibility(K, w)


class TestProbVec:
    def test_normalizes(self):
        v = ProbVec(np.array([2.0, 6.0]))
        np.testing.assert_allclose(v.weights, [0.25, 0.75])
        assert abs(v.weights.sum() - 1.0) < 1e-12

    def test_sum_that_overflows(self):
        # The sum of these weights is inf; scaled by the largest first, they
        # normalize as their scaled copy does.
        v = ProbVec(np.array([1e308, 1.7e308, 0.0, 1e308]))
        scaled = np.array([1e308, 1.7e308, 0.0, 1e308]) / 1.7e308
        assert np.array_equal(v.weights, ProbVec(scaled).weights)
        assert np.array_equal(ProbVec(np.array([1e308] * 4)).weights, [0.25] * 4)

    def test_rejects_negative(self):
        with pytest.raises(InvalidDistribution):
            ProbVec(np.array([0.5, -0.1]))

    def test_rejects_zero_mass(self):
        with pytest.raises(InvalidDistribution):
            ProbVec(np.array([0.0, 0.0]))

    def test_readonly(self):
        v = ProbVec(np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            v.weights[0] = 2.0


class TestStochasticKernel:
    def test_row_sum_enforced(self):
        with pytest.raises(InvalidKernel):
            StochasticKernel([[0.5, 0.4], [0.3, 0.7]])

    def test_negative_rejected(self):
        with pytest.raises(InvalidKernel):
            StochasticKernel([[1.2, -0.2], [0.3, 0.7]])

    def test_square_required(self):
        with pytest.raises(InvalidKernel):
            StochasticKernel([[0.5, 0.5]])


class TestCheckReversibility:
    def test_symmetric_uniform_zero_defect(self):
        rev = check_reversibility(TWO_STATE, UNIFORM2)
        assert rev.reversibility_defect == 0.0

    def test_product_check(self):
        rev = check_reversibility([[0.7, 0.3], [0.6, 0.4]], [2 / 3, 1 / 3])
        assert rev.reversibility_defect <= 1e-12

    def test_swap_with_biased_weights(self):
        with pytest.raises(NotReversible) as exc:
            check_reversibility([[0.0, 1.0], [1.0, 0.0]], [0.6, 0.4])
        assert exc.value.defect == pytest.approx(0.2, abs=1e-15)
        assert set(exc.value.pair) == {0, 1}

    @pytest.mark.parametrize("n", [64, 66, 150])
    def test_defect_over_row_blocks_is_the_whole_matrix_one(self, n):
        """The defect, taken over blocks of rows, and the failing pair are
        those of the whole flow matrix, bit for bit."""
        pi = random_probvec(7, n)
        w = pi.weights
        K = random_reversible_kernel(8, w)
        for broken in (False, True):
            if broken:  # a fault between two states of the last block of rows
                K[n - 1, n - 2] += 1e-6
                K[n - 1, n - 1] -= 1e-6
            flows = w[:, None] * K
            gap = np.abs(flows - flows.T)
            if not broken:
                assert check_reversibility(K, pi).reversibility_defect == gap.max()
                continue
            with pytest.raises(NotReversible) as exc:
                check_reversibility(K, pi)
            assert exc.value.defect == gap.max()
            assert exc.value.pair == np.unravel_index(gap.argmax(), gap.shape)


class TestCheckedStack:
    def stack(self):
        ws = [random_probvec(40 + y, 4).weights for y in range(3)]
        Ks = [random_reversible_kernel(50 + y, w) for y, w in enumerate(ws)]
        return np.array(Ks), np.array(ws)

    def test_passing_stack_is_returned_as_verified(self):
        K, w = self.stack()
        np.testing.assert_array_equal(checked_stack(K, w), K)

    @pytest.mark.parametrize("defect", ["row sum", "detailed balance"])
    def test_failing_slice_raises_its_own_error(self, defect):
        K, w = self.stack()
        if defect == "row sum":
            K[1, 2] *= 1.01
        else:
            # A stochastic cycle: not reversible for non-uniform weights.
            K[1] = np.roll(np.eye(4), 1, axis=1)
        with pytest.raises((InvalidKernel, NotReversible)) as want:
            check_reversibility(K[1], w[1])
        with pytest.raises(type(want.value)) as got:
            checked_stack(K, w)
        assert str(got.value) == str(want.value)
        assert getattr(got.value, "pair", None) == getattr(want.value, "pair", None)


def off_stationary():
    """The 3-state uniform kernel with K[0, 2] and K[1, 2] raised by 2.7e-10
    and the diagonal lowered to match: detailed balance holds within 9e-11,
    but the uniform weights miss stationarity by 1.8e-10."""
    K = np.full((3, 3), 1 / 3)
    for x in (0, 1):
        K[x, 2] += 2.7e-10
        K[x, x] -= 2.7e-10
    return K


def stack_of_three():
    ws = [random_probvec(40 + y, 3).weights for y in range(3)]
    Ks = [random_reversible_kernel(50 + y, w) for y, w in enumerate(ws)]
    return np.array(Ks), np.array(ws)


def break_slice_1(K, w, fault):
    """Make pair 1 of a stack fail ``fault`` alone; weights that sum to 1
    exactly keep the defect of the pair checked alone bit for bit."""
    if fault == "non-finite":
        K[1, 0, 0] = np.nan
    elif fault == "negative":
        K[1, 0, 1] -= 0.2
        K[1, 0, 0] += 0.2
    elif fault == "row sum":
        K[1, 0, 2] *= 1.01
    elif fault == "detailed balance":
        K[1], w[1] = np.roll(np.eye(3), 1, axis=1), [0.25, 0.25, 0.5]
    else:
        K[1], w[1] = off_stationary(), np.full(3, 1 / 3)


def raised(call, *args):
    with pytest.raises(HybridGibbsError) as exc:
        call(*args)
    e = exc.value
    return type(e), str(e), getattr(e, "pair", None), getattr(e, "defect", None)


class TestKernelChecks:
    """Every check of a kernel and of a pair, with its error's type, message
    and payload, alone and in a stack."""

    @pytest.mark.parametrize(
        "matrix, message",
        [
            ([[0.5, 0.5]], "kernel must be a nonempty square matrix"),
            ([[np.nan, 1.0], [0.5, 0.5]], "kernel entries must be finite"),
            ([[1.2, -0.2], [0.3, 0.7]], "kernel entries must be nonnegative"),
            ([[0.5, 0.4], [0.3, 0.7]], "row sums deviate from 1 by 1.000e-01 (tolerance 1.0e-12)"),
        ],
        ids=["non-square", "non-finite", "negative", "row-sum"],
    )
    def test_kernel_error(self, matrix, message):
        assert raised(StochasticKernel, matrix) == (InvalidKernel, message, None, None)

    def test_tiny_negative_entry_is_clamped(self):
        m = StochasticKernel([[1.0, -1e-16], [0.5, 0.5]]).matrix
        assert m[0, 1] == 0.0 and not np.signbit(m[0, 1])
        assert not m.flags.writeable

    def test_row_sums_are_checked_at_one_tolerance(self):
        # Every kernel is checked at 1e-12; no caller can choose another.
        K = np.full((3, 3), 1 / 3)
        K[0, 0] += 5e-11
        with pytest.raises(InvalidKernel, match=r"tolerance 1\.0e-12"):
            StochasticKernel(K)
        K[0, 0] = 1 / 3 + 5e-13
        rev = check_reversibility(StochasticKernel(K), np.full(3, 1 / 3))
        assert rev.reversibility_defect == 0.0
        with pytest.raises(TypeError):
            StochasticKernel(K, row_tol=1e-10)

    def test_pair_size_mismatch(self):
        want = (DimensionMismatch, "kernel and stationary distribution sizes differ", None, None)
        assert raised(check_reversibility, TWO_STATE, [0.2, 0.3, 0.5]) == want

    def test_detailed_balance(self):
        got = raised(check_reversibility, np.roll(np.eye(3), 1, axis=1), [0.2, 0.3, 0.5])
        message = "detailed balance fails at states (0, 2) with defect 5.000e-01 > 1.0e-10"
        assert got == (NotReversible, message, (0, 2), 0.5)

    def test_stationarity(self):
        kind, message, where, defect = raised(check_reversibility, off_stationary(), [1, 1, 1])
        assert (kind, where) == (NotReversible, None)
        assert message == "weights are not stationary: residual 1.800e-10"
        assert defect == pytest.approx(9.0e-11, rel=1e-6)

    @pytest.mark.parametrize(
        "fault", ["non-finite", "negative", "row sum", "detailed balance", "stationarity"]
    )
    def test_stack_raises_the_error_of_its_slice_alone(self, fault):
        K, w = stack_of_three()
        break_slice_1(K, w, fault)
        want = raised(check_reversibility, K[1], w[1])
        assert raised(checked_stack, K, w) == want

    def test_stack_raises_for_the_first_check_that_fails(self):
        # Slice 0 breaks detailed balance and slice 2 a row sum: the row
        # check runs first, so slice 2's error is raised.
        K, w = stack_of_three()
        K[0] = np.roll(np.eye(3), 1, axis=1)
        K[2, 0, 2] *= 1.01
        assert raised(check_reversibility, K[0], w[0])[0] is NotReversible
        assert raised(checked_stack, K, w) == raised(StochasticKernel, K[2])

    def test_function_vector_errors_are_named(self):
        for values in ([1.0, np.nan], []):
            with pytest.raises(InvalidArgument):
                FunctionVec(values)


class TestSpectralSummary:
    def test_independence_kernel(self):
        w = random_probvec(1, 5)
        K = np.tile(w.weights, (5, 1))
        s = spectral_summary(pair(K, w))
        assert s.operator_norm == pytest.approx(0.0, abs=1e-12)
        assert s.gap == pytest.approx(1.0, abs=1e-12)

    def test_identity(self):
        s = spectral_summary(pair(np.eye(3), [0.2, 0.3, 0.5]))
        assert s.operator_norm == pytest.approx(1.0, abs=1e-12)
        assert s.gap == pytest.approx(0.0, abs=1e-12)

    def test_two_state(self):
        s = spectral_summary(pair(TWO_STATE, UNIFORM2))
        assert s.operator_norm == pytest.approx(0.4, abs=1e-12)
        assert s.gap == pytest.approx(0.6, abs=1e-12)
        assert s.psd

    def test_gap_plus_norm_is_one_exactly(self):
        for seed in range(10):
            w = random_probvec(seed, 4)
            K = random_reversible_kernel(seed + 100, w)
            s = spectral_summary(pair(K, w))
            assert s.gap + s.operator_norm == 1.0

    def test_rayleigh_quotients_never_exceed_norm(self):
        # 200 random mean-zero functions on a fixed random reversible kernel.
        w = random_probvec(7, 6)
        K = random_reversible_kernel(8, w)
        rev = pair(K, w)
        s = spectral_summary(rev)
        rng = rng_from(9)
        for _ in range(200):
            f = rng.standard_normal(6)
            f -= w.weights @ f
            num = abs(w.weights @ (f * (K @ f)))
            den = w.weights @ (f * f)
            assert num / den <= s.operator_norm + 1e-9


REDUCIBLE = {
    "identity": (np.eye(4), [0.25, 0.25, 0.25, 0.25]),
    "swap": (np.array([[0.0, 1.0], [1.0, 0.0]]), UNIFORM2),
    "block-diagonal": (
        np.array(
            [[0.5, 0.5, 0.0, 0.0], [0.5, 0.5, 0.0, 0.0], [0.0, 0.0, 0.2, 0.8], [0.0, 0.0, 0.8, 0.2]]
        ),
        [0.25, 0.25, 0.25, 0.25],
    ),
}


class TestEigvalsSummary:
    """The eigenvalues-only summary drops the top eigenvalue, the stationary one."""

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_the_eigenvector_route(self, seed):
        w = random_probvec(seed + 300, 30)
        rev = pair(random_reversible_kernel(seed + 400, w), w)
        got, want = eigvals_summary(rev), spectral_summary(rev)
        for key in ("gap", "lambda_min", "lambda_max"):
            assert abs(getattr(got, key) - getattr(want, key)) <= 2e-15
        assert got.eigenvalues.size == want.eigenvalues.size == 29

    @pytest.mark.parametrize("name", list(REDUCIBLE))
    def test_a_repeated_eigenvalue_one_reads_no_gap(self, name):
        K, w = REDUCIBLE[name]
        s = eigvals_summary(pair(K, w))
        assert s.gap == 0.0
        assert s.operator_norm == 1.0
        assert max(abs(s.lambda_min), abs(s.lambda_max)) == 1.0

    def test_one_state_convention(self):
        s = eigvals_summary(pair([[1.0]], [1.0]))
        got = (s.operator_norm, s.gap, s.lambda_min, s.lambda_max, s.psd, s.eigenvalues.size)
        assert got == (0.0, 1.0, 0.0, 0.0, True, 0)


class TestKeptDecomposition:
    def test_a_pair_decomposes_once(self, eig_counts):
        # Outside any Analysis: the summary, the battery and its variances
        # read one decomposition.
        w = random_probvec(21, 12)
        rev = pair(random_reversible_kernel(22, w), w)
        summary = spectral_summary(rev)
        F, _labels = function_battery(rev)
        variances(rev, F)
        assert spectral_summary(rev) is summary
        assert dict(eig_counts["eigh"]) == {12: 1}


def closed_classes_kernel(seed):
    """An inner kernel with 2 or 3 closed classes: a random conditional of
    a random joint, split into classes, with a random kernel reversible for
    the conditional's restriction on each."""
    rng = rng_from(seed)
    joint = random_joint(seed, sizes=(int(rng.integers(5, 9)), 3))
    w = conditional(joint, 0, (int(rng.integers(3)),)).weights
    K = np.zeros((w.size, w.size))
    for members in np.array_split(rng.permutation(w.size), int(rng.integers(2, 4))):
        K[np.ix_(members, members)] = random_reversible_kernel(rng, w[members])
    return pair(K, w)


def reducible_pairs():
    """{name: pair} whose eigenvalue 1 repeats."""
    joint = random_joint(3, sizes=(3, 4))
    model = SliceModel([0.3, 1.0, 0.6, 1.0, 0.2], level_kernels=[Lazy(1.0)] * 4)
    pairs = {
        "identity": pair(np.eye(3), np.full(3, 1 / 3)),
        "two-classes": pair(np.kron(np.eye(2), np.full((2, 2), 0.5)), np.full(4, 0.25)),
        "lazy-one-scan": hybrid_random_scan(joint, spec=ApproximatorSpec(Lazy(1.0))),
        "slice-lazy-one": da_hybrid(model),
    }
    pairs.update((f"classes-{seed}", closed_classes_kernel(seed)) for seed in range(20))
    return pairs


def benchmark_models():
    """The exact chains of the benchmark's seed-0 suite workloads."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [workloads.Prepared(name, 0, 0).rev for name in workloads.SUITE_CONFIGS]


class TestUnitEigenspace:
    @pytest.mark.parametrize("name", list(reducible_pairs()))
    def test_a_repeated_unit_eigenvalue_is_settled(self, name):
        rev = reducible_pairs()[name]
        A = _symmetrized(rev)[4]
        _keep, _dropped, _ws, d, vals, vecs, _asym = rev._eigs
        assert np.sum(vals >= 1.0 - UNIT_TOL) >= 2
        # The last column is d itself and the others are orthogonal to it:
        # an orthonormal eigenbasis still.
        assert np.array_equal(vecs[:, -1], d)
        assert np.abs(d @ vecs[:, :-1]).max() <= 1e-15
        np.testing.assert_allclose(vecs.T @ vecs, np.eye(d.size), rtol=0, atol=1e-14)
        np.testing.assert_allclose(A @ vecs, vecs * vals, rtol=0, atol=1e-12)

    def test_a_simple_unit_eigenvalue_keeps_lapacks_arrays(self):
        pairs = benchmark_models()
        for seed in range(14):
            joint = random_joint(seed)
            pairs.append(exact_random_scan(joint))
            for rule in (Exact(), Lazy(0.3), MetropolisRW(1)):
                pairs.append(hybrid_random_scan(joint, spec=ApproximatorSpec(rule)))
        assert len(pairs) >= 40
        for rev in pairs:
            vals, vecs = np.linalg.eigh(_symmetrized(rev)[4])
            assert vals[-2] < 1.0 - UNIT_TOL
            assert np.array_equal(rev._eigs[4], vals) and np.array_equal(rev._eigs[5], vecs)


class TestAffine:
    @pytest.mark.parametrize("c", [0.0, 0.3, 0.95])
    def test_spectrum_and_variances_match_a_fresh_decomposition(self, c):
        w = random_probvec(11, 7)
        base = pair(random_reversible_kernel(12, w), w)
        rev = affine(base, c)
        fresh = pair(c * np.eye(7) + (1.0 - c) * base.kernel.matrix, w)
        np.testing.assert_allclose(rev.kernel.matrix, fresh.kernel.matrix, rtol=0, atol=1e-15)
        got, want = spectral_summary(rev), spectral_summary(fresh)
        np.testing.assert_allclose(got.eigenvalues, want.eigenvalues, rtol=0, atol=1e-12)
        assert got.operator_norm == pytest.approx(want.operator_norm, abs=1e-12)
        F = rng_from(13).standard_normal((7, 3))
        np.testing.assert_allclose(variances(rev, F), variances(fresh, F), rtol=1e-10)

    def test_dropped_state_rejected(self):
        # The third state carries no stationary mass.
        base = pair([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.5, 0.5]], [0.5, 0.5, 0.0])
        with pytest.raises(InvalidKernel, match="drops no state"):
            affine(base, 0.3)


class TestDirichletForm:
    """The Dirichlet forms every sandwich check reads: ``bounds.dirichlet_forms``,
    one per column of a battery."""

    # Columns: a constant and the two-state eigenfunction (1, -1).
    TWO_STATE_BATTERY = np.array([[3.0, 1.0], [3.0, -1.0]])

    def test_constant_function(self):
        forms = dirichlet_forms(pair(TWO_STATE, UNIFORM2), self.TWO_STATE_BATTERY)
        assert forms[0] == pytest.approx(0.0, abs=1e-15)

    def test_two_state_hand_value(self):
        # (1/2)(0.5 * 0.3 * 4 + 0.5 * 0.3 * 4) = 0.6
        forms = dirichlet_forms(pair(TWO_STATE, UNIFORM2), self.TWO_STATE_BATTERY)
        assert forms[1] == pytest.approx(0.6, abs=1e-12)

    def test_independence_kernel_gives_variance(self):
        w = random_probvec(21, 4)
        K = np.tile(w.weights, (4, 1))
        rev = pair(K, w)
        f = np.array([0.3, -1.0, 2.0, 0.1])
        f0 = f - w.weights @ f
        expected = float(w.weights @ (f0 * f0))
        forms = dirichlet_forms(rev, np.column_stack([f, f0]))
        np.testing.assert_allclose(forms, [expected, expected], rtol=0, atol=1e-12)

    def test_formulas_cross_checked_on_random_inputs(self):
        # The inner-product form |f|^2 - <f, K f> against the double sum
        # (1/2) sum_{x,y} w(x) K(x,y) (f(x) - f(y))^2, column by column.
        rng = rng_from(3)
        for seed in range(25):
            w = random_probvec(seed, 5)
            K = random_reversible_kernel(seed + 50, w)
            F = rng.standard_normal((5, 3))
            diff = F[:, None, :] - F[None, :, :]
            double_sum = 0.5 * np.einsum("x,xy,xyj->j", w.weights, K, diff * diff)
            forms = dirichlet_forms(pair(K, w), F)
            scale = np.maximum(1.0, np.einsum("x,xj->j", w.weights, F * F))
            assert np.all(np.abs(forms - double_sum) <= 1e-10 * scale)


class TestDirichletRatioExtrema:
    """The extremes of E(f)/|f|^2 over mean-zero f are 1 - lambda_max and
    1 - lambda_min of the summary, and the eigenvector battery attains them."""

    @staticmethod
    def extrema(rev):
        s = spectral_summary(rev)
        F, _labels = function_battery(rev, trials=0)
        ratios = dirichlet_forms(rev, F) / quadratic_forms(rev, F)[1]
        assert ratios.min() == pytest.approx(1.0 - s.lambda_max, abs=1e-12)
        assert ratios.max() == pytest.approx(1.0 - s.lambda_min, abs=1e-12)
        return 1.0 - s.lambda_max, 1.0 - s.lambda_min

    def test_independence(self):
        w = random_probvec(4, 3)
        K = np.tile(w.weights, (3, 1))
        lo, hi = self.extrema(pair(K, w))
        assert lo == pytest.approx(1.0, abs=1e-12)
        assert hi == pytest.approx(1.0, abs=1e-12)

    def test_identity(self):
        lo, hi = self.extrema(pair(np.eye(3), [0.3, 0.3, 0.4]))
        assert lo == pytest.approx(0.0, abs=1e-12)
        assert hi == pytest.approx(0.0, abs=1e-12)

    def test_two_state(self):
        lo, hi = self.extrema(pair(TWO_STATE, UNIFORM2))
        assert lo == pytest.approx(0.6, abs=1e-12)
        assert hi == pytest.approx(0.6, abs=1e-12)


class TestAsymptoticVariance:
    def test_independence_kernel(self):
        w = random_probvec(31, 4)
        K = np.tile(w.weights, (4, 1))
        f = np.array([1.0, 0.0, -2.0, 0.5])
        f0 = f - w.weights @ f
        expected = float(w.weights @ (f0 * f0))
        assert asymptotic_variance(pair(K, w), f) == pytest.approx(expected, rel=1e-12)

    def test_two_state_eigenfunction(self):
        # f = (1, -1) has eigenvalue 0.4: var = 2/(1 - 0.4) - 1 = 7/3.
        rev = pair(TWO_STATE, UNIFORM2)
        assert asymptotic_variance(rev, [1.0, -1.0]) == pytest.approx(7 / 3, rel=1e-12)

    def test_identity_has_no_gap(self):
        # The Gershgorin bound certifies the lower edge; the upper edge fails.
        with pytest.raises(NoSpectralGap):
            asymptotic_variance(pair(np.eye(2), UNIFORM2), [1.0, -1.0])

    @pytest.mark.parametrize(
        "K, w",
        [
            ([[0.0, 1.0], [1.0, 0.0]], UNIFORM2),
            ([[0.0, 0.5, 0.5], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]], [0.5, 0.25, 0.25]),
        ],
        ids=["swap", "bipartite"],
    )
    def test_eigenvalue_minus_one_has_no_gap(self, K, w):
        with pytest.raises(NoSpectralGap):
            asymptotic_variance(pair(K, w), np.arange(len(w), dtype=float))

    def test_solve_matches_eigenbasis(self, eig_counts):
        # The one-column solve against the eigenbasis formula of the
        # n-column batteries, with no eigensolve of its own.
        chains = []
        for seed in range(18):
            n = 2 + seed % 7
            w = random_probvec(seed + 900, n)
            chains.append(pair(random_reversible_kernel(seed + 950, w), w))
        w = random_probvec(1, 4)
        chains.append(pair(0.5 * np.eye(4) + 0.5 * random_reversible_kernel(2, w), w))
        # State 3 carries no stationary mass and is dropped from the support.
        w = random_probvec(4, 3)
        K = np.zeros((4, 4))
        K[:3, :3] = random_reversible_kernel(3, w)
        K[3] = [0.2, 0.3, 0.1, 0.4]
        chains.append(pair(K, np.append(w.weights, 0.0)))
        # An aperiodic 3-cycle: its zero diagonal leaves the Gershgorin
        # bound at -1, so the lower edge takes a second Cholesky factor.
        cycle = [[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]]
        chains.append(pair(cycle, [1 / 3] * 3))
        for k, rev in enumerate(chains):
            f = rng_from(k).standard_normal(rev.n)
            solved = asymptotic_variance(rev, f)
            assert not eig_counts["eigh"] and not eig_counts["eigvalsh"]
            cholesky = dict(eig_counts["cholesky"])
            expected = float(variances(rev, f[:, None])[0])
            assert solved == pytest.approx(expected, rel=1e-12)
            for counter in eig_counts.values():
                counter.clear()
        assert cholesky == {3: 2}

    def test_large_chain_matches_fundamental_matrix(self, eig_counts):
        # A random walk on a dense weighted graph with 2,000 states, more
        # than one substitution block and not a multiple of one.  Its
        # positive diagonal certifies the lower edge with no second factor.
        rng = rng_from(31)
        n = 2000
        C = rng.random((n, n))
        C += C.T
        w = C.sum(axis=1)
        K = C / w[:, None]
        rev = pair(K, w)
        f = rng.standard_normal(n)
        solved = asymptotic_variance(rev, f)
        assert eig_counts["cholesky"] == {n: 1}
        assert n not in eig_counts["solve"]
        pi = rev.stationary.weights
        f0 = f - pi @ f
        x = np.linalg.solve(np.eye(n) - rev.kernel.matrix + np.outer(np.ones(n), pi), f0)
        expected = 2.0 * float(pi @ (f0 * x)) - float(pi @ (f0 * f0))
        assert solved == pytest.approx(expected, rel=1e-12)

    def test_psd_variance_at_least_plain_variance(self):
        for seed in range(20):
            w = random_probvec(seed, 5)
            K = random_reversible_kernel(seed + 500, w)
            lazy = 0.5 * np.eye(5) + 0.5 * K  # psd by laziness
            rev = pair(lazy, w)
            if spectral_summary(rev).operator_norm >= 1 - 1e-12:
                continue
            f = rng_from(seed).standard_normal(5)
            f0 = f - w.weights @ f
            plain = float(w.weights @ (f0 * f0))
            assert asymptotic_variance(rev, f) >= plain - 1e-9


def two_buffer_symmetrize(M, ws):
    """The two-buffer symmetrization, kept as a reference for the blocked
    in-place one: M is scaled in place, and a second buffer holds first
    |M - M^T|, then A."""
    d = np.sqrt(ws)
    M *= d[..., :, None]
    M /= d[..., None, :]
    Mt = np.swapaxes(M, -1, -2)
    A = np.subtract(M, Mt)
    np.abs(A, out=A)
    asym = A.max(axis=(-2, -1))
    np.add(M, Mt, out=A)
    A /= 2.0
    return d, A, asym


def two_buffer_asymptotic_variance(rev, f):
    """The variance with B = d d^T - A + (1 - margin) I in a buffer of its
    own, kept as a reference for the one that builds B in A's buffer."""
    keep, _dropped, ws, M = _restrict(rev.kernel.matrix, rev.stationary.weights)
    d, A, _asym = two_buffer_symmetrize(M, ws)
    v = np.asarray(f, dtype=np.float64)[keep]
    g = d * (v - float(ws @ v))
    margin = 1e-12
    diag = np.diag_indices_from(A)
    low = float(np.min(2.0 * A[diag] - (A @ d) / d))
    B = np.outer(d, d)
    B -= A
    B[diag] += 1.0 - margin
    try:
        if not (np.isfinite(low) and low > -1.0 + margin + 1e-9):
            A[diag] += 1.0 - margin
            np.linalg.cholesky(A)
        L = np.linalg.cholesky(B)
    except np.linalg.LinAlgError:
        raise NoSpectralGap("no spectral gap") from None
    B[diag] += margin
    x = _cholesky_solve(L, g)
    x += _cholesky_solve(L, g - B @ x)
    return 2.0 * float(g @ x) - float(g @ g)


class TestInPlaceSymmetrization:
    """The blocked in-place symmetrization and the variance's matrix built in
    the symmetrized kernel's buffer, against the two-buffer formulas, to the
    last bit."""

    @staticmethod
    def assert_same(M, ws):
        d0, A0, asym0 = two_buffer_symmetrize(M.copy(), ws)
        given = M.copy()
        d1, A1, asym1 = _symmetrize(given, ws)
        assert A1 is given
        assert np.array_equal(d0, d1) and np.array_equal(A0, A1)
        assert np.array_equal(asym0, asym1) and np.shape(asym0) == np.shape(asym1)

    @pytest.mark.parametrize(
        "n", [1, _SYM_BLOCK - 1, _SYM_BLOCK, _SYM_BLOCK + 1, 2 * _SYM_BLOCK + 3]
    )
    def test_one_matrix(self, n):
        rng = rng_from(n)
        # A matrix that is not reversible, with its largest asymmetry in the
        # top right corner, off the diagonal blocks (the weights scale no
        # entry by more than 10), and a reversible kernel,
        # whose asym is rounding residue.
        M = rng.random((n, n))
        M[0, -1] += 1e4
        self.assert_same(M, (rng.random(n) + 0.01) / n)
        w = random_probvec(rng, n)
        self.assert_same(random_reversible_kernel(rng, w), w.weights)

    @pytest.mark.parametrize(
        "shape", [(5, 64), (300, 8), (3, _SYM_BLOCK + 1), (0, 4)], ids=str
    )
    def test_stack(self, shape):
        count, n = shape
        rng = rng_from(count + n)
        M = rng.random((count, n, n))
        M[:, 0, -1] += 1e4
        ws = rng.random((count, n)) + 0.01
        ws /= ws.sum(axis=1, keepdims=True)
        self.assert_same(M, ws)

    def test_asymptotic_variance_is_the_two_buffer_value(self):
        chains = []
        for seed in range(25):
            n = 2 + (seed * 37) % (2 * _SYM_BLOCK + 5)
            w = random_probvec(seed + 700, n)
            chains.append(pair(random_reversible_kernel(seed + 750, w), w))
        # State 3 carries no stationary mass and is dropped from the support.
        w = random_probvec(4, 3)
        K = np.zeros((4, 4))
        K[:3, :3] = random_reversible_kernel(3, w)
        K[3] = [0.2, 0.3, 0.1, 0.4]
        chains.append(pair(K, np.append(w.weights, 0.0)))
        # A zero diagonal entry: the lower edge takes the second factor.
        chains.append(pair([[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]], [1 / 3] * 3))
        for k, rev in enumerate(chains):
            f = rng_from(k).standard_normal(rev.n)
            assert asymptotic_variance(rev, f) == two_buffer_asymptotic_variance(rev, f)

    @pytest.mark.parametrize(
        "K, w",
        [
            (np.eye(2), UNIFORM2),
            ([[0.0, 1.0], [1.0, 0.0]], UNIFORM2),
            ([[0.0, 0.5, 0.5], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]], [0.5, 0.25, 0.25]),
        ],
        ids=["identity", "swap", "bipartite"],
    )
    def test_gapless_chains_raise_as_before(self, K, w):
        rev, f = pair(K, w), np.arange(len(w), dtype=float)
        for variance in (asymptotic_variance, two_buffer_asymptotic_variance):
            with pytest.raises(NoSpectralGap):
                variance(rev, f)


@st.composite
def rooted_joints(draw, p_values=(0.0, 0.2, 1.0, 3.0)):
    """A joint whose weights are all positive, with Gram order below its
    size, and selection probabilities drawn from ``p_values``."""
    sizes = draw(
        st.lists(st.integers(2, 5), min_size=2, max_size=3).filter(
            lambda s: sum(prod(s) // d for d in s) < prod(s)
        )
    )
    weights = draw(st.lists(st.floats(1e-3, 10.0), min_size=prod(sizes), max_size=prod(sizes)))
    p = draw(st.lists(st.sampled_from(p_values), min_size=len(sizes), max_size=len(sizes)))
    return joint_from_weights(sizes, weights), (p if any(p) else None)


class TestGramRoot:
    """The exact random-scan pair's Gram root against its dense kernel, and
    the asymptotic variance's root route against its dense route."""

    @settings(max_examples=40, deadline=None)
    @given(rooted_joints())
    def test_the_root_factors_the_symmetrized_kernel(self, case):
        joint, p = case
        rev = exact_random_scan(joint, p)
        B = gram_factor(rev._root)
        assert B.shape[1] == sum(joint.n // d for d in joint.space.sizes) < joint.n
        assert np.abs(B @ B.T - _symmetrized(rev)[4]).max() <= 1e-15

    @settings(max_examples=40, deadline=None)
    @given(rooted_joints(p_values=(0.2, 1.0, 3.0)), st.integers(0, 2**32 - 1))
    def test_the_root_variance_is_the_dense_variance(self, case, seed):
        joint, p = case
        rev = exact_random_scan(joint, p)
        dense = check_reversibility(rev.kernel, rev.stationary)
        assert rev._root is not None and dense._root is None
        f = rng_from(seed).standard_normal(joint.n)
        assert asymptotic_variance(rev, f) == pytest.approx(
            asymptotic_variance(dense, f), rel=1e-12
        )

    def test_both_routes_find_no_gap_on_a_near_reducible_joint(self):
        # Gram order 4 = n, so no chain carries the root here; it is
        # attached by hand to test the root route's certificate.
        joint = joint_from_weights((2, 2), [1.0, 1e-13, 1e-13, 1.0])
        rev = exact_random_scan(joint)
        assert rev._root is None
        rooted = check_reversibility(rev.kernel, rev.stationary)
        tables = [ConditionalTable(joint, i) for i in range(2)]
        object.__setattr__(rooted, "_root", _scan_root(joint, np.full(2, 0.5), tables.__getitem__))
        B = gram_factor(rooted._root)
        assert np.abs(B @ B.T - _symmetrized(rev)[4]).max() <= 1e-15
        for pair_ in (rev, rooted):
            with pytest.raises(NoSpectralGap):
                asymptotic_variance(pair_, [1.0, 0.0, 0.0, -1.0])

    def test_the_dense_route_is_taken_where_no_root_applies(self, eig_counts):
        joint = random_joint(5, sizes=(4, 5))
        assert exact_random_scan(joint)._root is not None
        thin = joint.weights.copy()
        thin[3] = 1e-16
        cases = {
            "a weight below NULL_MASS": exact_random_scan(joint_from_weights((4, 5), thin)),
            "Gram order 16 >= 12": exact_random_scan(random_joint(5, sizes=(2, 3, 2))),
            "a Lazy spec": hybrid_random_scan(joint, None, ApproximatorSpec(default=Lazy(0.3))),
        }
        for name, rev in cases.items():
            assert rev._root is None, name
            support = rev.n - len(eigvals_summary(rev).dropped_states)
            eig_counts["cholesky"].clear()
            asymptotic_variance(rev, np.arange(rev.n, dtype=float))
            assert set(eig_counts["cholesky"]) == {support}, name


class TestTStep:
    """Operator norms of t-step kernels."""

    def test_norm_power_identity(self):
        # For self-adjoint kernels |K^t| = |K|^t; check psd and general cases.
        for seed, make_psd in [(1, True), (2, False), (3, True), (4, False)]:
            w = random_probvec(seed, 5)
            K = random_reversible_kernel(seed + 40, w)
            if make_psd:
                K = 0.5 * np.eye(5) + 0.5 * K
            rev = pair(K, w)
            norm1 = spectral_summary(rev).operator_norm
            for t in (2, 3, 5):
                revt = check_reversibility(np.linalg.matrix_power(rev.kernel.matrix, t), w)
                normt = spectral_summary(revt).operator_norm
                assert normt == pytest.approx(norm1**t, abs=1e-9)


class TestSpectralJensen:
    def test_eigenfunction_equality(self):
        rev = pair(TWO_STATE, UNIFORM2)
        rep = spectral_jensen_check(rev, [1.0, -1.0], 4)
        assert rep.status == "pass"
        assert rep.lhs == pytest.approx(0.4**4, rel=1e-12)
        assert rep.rhs == pytest.approx(0.4**4, rel=1e-12)

    def test_swap_even_power(self):
        rev = pair([[0.0, 1.0], [1.0, 0.0]], UNIFORM2)
        rep = spectral_jensen_check(rev, [1.0, -1.0], 2)
        assert rep.status == "pass"
        assert rep.lhs == pytest.approx(1.0)
        assert rep.rhs == pytest.approx(1.0)

    def test_psd_odd_power_against_matrix_oracle(self):
        rev = pair(TWO_STATE, UNIFORM2)
        f = np.array([2.0, -1.0])
        rep = spectral_jensen_check(rev, f, 3)
        assert rep.status == "pass"
        # Direct matrix-power oracle for the right-hand side.
        w = np.array(UNIFORM2)
        f0 = f - w @ f
        K3 = np.linalg.matrix_power(np.array(TWO_STATE), 3)
        rhs = (w @ (f0 * (K3 @ f0))) / (w @ (f0 * f0))
        assert rep.rhs == pytest.approx(rhs, rel=1e-12)

    def test_psd_within_its_tolerance_is_an_upper_side_pass(self):
        # lambda_min = 2a - 1 = -5e-10: psd admits it (PSD_TOL is 1e-9), so
        # odd t is allowed, and lhs = rhs = -5e-10 exactly.  A separate
        # lhs >= -tol test at tol = 1e-10 would report a fail here.
        a = 0.5 - 2.5e-10
        rev = pair([[a, 1.0 - a], [1.0 - a, a]], UNIFORM2)
        s = spectral_summary(rev)
        assert s.psd and s.lambda_min == pytest.approx(-5.0e-10, rel=1e-6)
        rep = spectral_jensen_check(rev, [1.0, -1.0], 1)
        assert rep.status == "pass"
        assert rep.witness["side"] == "upper"
        assert rep.lhs == rep.rhs == pytest.approx(-5.0e-10, rel=1e-6)

    def test_accepts_function_vec(self):
        rev = pair(TWO_STATE, UNIFORM2)
        f = FunctionVec(np.array([1.0, -1.0]))
        assert spectral_jensen_check(rev, f, 4) == spectral_jensen_check(rev, [1.0, -1.0], 4)
        assert asymptotic_variance(rev, f) == asymptotic_variance(rev, [1.0, -1.0])

    def test_odd_power_needs_psd(self):
        rev = pair([[0.0, 1.0], [1.0, 0.0]], UNIFORM2)
        with pytest.raises(PreconditionUnmet):
            spectral_jensen_check(rev, [1.0, -1.0], 3)

    def test_constant_function_rejected(self):
        rev = pair(TWO_STATE, UNIFORM2)
        with pytest.raises(ZeroFunction):
            spectral_jensen_check(rev, [2.0, 2.0], 2)

    @staticmethod
    def loop_rhs(rev, f, t):
        """<f0, K^t f0> / |f0|^2 by t matrix-vector products: the reference
        for the rhs read from the decomposition."""
        K, w = rev.kernel.matrix, rev.stationary.weights
        f0 = f - w @ f
        g = f0.copy()
        for _ in range(t):
            g = K @ g
        return float(w @ (f0 * g)) / float(w @ (f0 * f0))

    def test_rhs_is_the_loop_value(self):
        # Relative to the loop's own rounding: once <f0, K^t f0> / |f0|^2
        # falls below about 1e-30, the loop keeps only its rounding residue
        # (a two-state chain of norm 0.016 reads 8e-34 at t = 64 for a true
        # 1e-115), hence the absolute floor of 1e-15 on that unit scale.
        rng = rng_from(23)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            w = random_probvec(rng, n)
            rev = pair(random_reversible_kernel(rng, w), w)
            f = rng.standard_normal(n)
            for t in range(2, 65, 2):
                rhs = spectral_jensen_check(rev, f, t).rhs
                assert rhs == pytest.approx(self.loop_rhs(rev, f, t), rel=1e-12, abs=1e-15)

    def test_a_huge_power_returns_at_once(self):
        start = time.perf_counter()
        rep = spectral_jensen_check(pair(TWO_STATE, UNIFORM2), [2.0, -1.0], 10**400)
        assert rep.lhs == rep.rhs == 0.0 and rep.status == "pass"
        # Eigenvalue -1 to an even power: 1, not a NaN.
        rep = spectral_jensen_check(pair([[0.0, 1.0], [1.0, 0.0]], UNIFORM2), [1.0, -1.0], 10**400)
        assert rep.lhs == rep.rhs == 1.0 and rep.status == "pass"
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize(
        "K, f",
        [
            (np.kron(np.eye(2), np.full((2, 2), 0.5)), [1.0, 1.0, 0.0, 0.0]),
            (np.kron(np.eye(2), np.full((2, 2), 0.5)), [1.0, -1.0, 3.0, 3.0]),
            (np.eye(3), [1.0, 1.0, -2.0]),
        ],
        ids=["two-classes", "two-classes-mixed", "identity"],
    )
    def test_a_reducible_kernel_keeps_its_unit_eigenspace(self, K, f):
        # The unit eigenvalue repeats: the decomposition's last column is
        # the stationary one, and both sides are read as repeated
        # multiplication reads them, at any t.
        rev = pair(K, np.full(len(K), 1.0 / len(K)))
        f = np.array(f)
        for t in (1, 2, 8):
            rep = spectral_jensen_check(rev, f, t)
            assert rep.rhs == pytest.approx(self.loop_rhs(rev, f, t), abs=1e-15)
        rep = spectral_jensen_check(rev, f, 10**400)
        assert rep.rhs == pytest.approx(self.loop_rhs(rev, f, 64), abs=1e-15)
        assert rep.status == "pass"
        f0 = f - f.mean()
        if np.array_equal(K @ f0, f0):  # f lies in the unit eigenspace: 1 on both sides
            for t in (1, 2, 10**6, 10**400):
                rep = spectral_jensen_check(rev, f, t)
                assert rep.lhs == rep.rhs == 1.0

    @pytest.mark.parametrize("seed", range(20))
    def test_a_closed_class_reads_one_on_both_sides(self, seed):
        # LAPACK returns these unit eigenvalues up to 6e-16 off 1: under the
        # unit rule, the indicator of a closed class still reads 1 at any
        # even t (the kernels need not be psd).
        rev = closed_classes_kernel(seed)
        K = rev.kernel.matrix
        f = (np.linalg.matrix_power(K + np.eye(len(K)), len(K))[0] > 0).astype(float)
        for t in (2, 10**6, 10**400):
            rep = spectral_jensen_check(rev, f, t)
            assert rep.lhs == rep.rhs == 1.0

    def test_powers_take_their_sign_from_the_parity(self):
        x = np.array([-1.0, -0.5, 0.5, 1.0, 1.0 + 2e-16])
        assert _powers(x, 10**400).tolist() == [1.0, 0.0, 0.0, 1.0, 1.0]
        assert _powers(x, 10**400 + 1).tolist() == [-1.0, -0.0, 0.0, 1.0, 1.0]
        assert _powers(x, 3).tolist() == [-1.0, -0.125, 0.125, 1.0, 1.0]

    def test_random_sweep_small(self):
        rng = rng_from(17)
        for seed in range(20):
            w = random_probvec(seed, int(rng.integers(2, 7)))
            K = random_reversible_kernel(seed + 900, w)
            rev = pair(K, w)
            f = rng.standard_normal(w.n)
            for t in (2, 4, 6, 8):
                assert spectral_jensen_check(rev, f, t).status == "pass"
