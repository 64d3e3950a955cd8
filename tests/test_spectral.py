"""Core spectral operations against hand-computed and brute-force oracles."""

import numpy as np
import pytest

from hybridgibbs import (
    FunctionVec,
    ProbVec,
    StochasticKernel,
    asymptotic_variance,
    check_reversibility,
    dirichlet_form,
    dirichlet_ratio_extrema,
    spectral_jensen_check,
    spectral_summary,
    stationary_distribution,
    t_step,
)
from hybridgibbs.errors import (
    DimensionMismatch,
    HybridGibbsError,
    InvalidArgument,
    InvalidDistribution,
    InvalidKernel,
    NonUniqueStationary,
    NoSpectralGap,
    NotReversible,
    PreconditionUnmet,
    ZeroFunction,
)
from hybridgibbs.randomgen import random_probvec, random_reversible_kernel, rng_from
from hybridgibbs.bounds import function_battery
from hybridgibbs.spectral import affine, checked_stack, eigvals_summary, variances

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

    def test_support(self):
        v = ProbVec(np.array([0.5, 0.0, 0.5]))
        assert v.support.tolist() == [0, 2]

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


class TestStationaryDistribution:
    def test_identity_not_unique(self):
        with pytest.raises(NonUniqueStationary):
            stationary_distribution(np.eye(2))

    def test_symmetric_doubly_stochastic(self):
        w = stationary_distribution(TWO_STATE)
        np.testing.assert_allclose(w.weights, UNIFORM2, atol=1e-12)

    def test_two_state_balance(self):
        # Hand oracle: w0 * 0.3 = w1 * 0.6 and w0 + w1 = 1.
        w = stationary_distribution([[0.7, 0.3], [0.6, 0.4]])
        np.testing.assert_allclose(w.weights, [2 / 3, 1 / 3], atol=1e-12)


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

    def test_kernel_at_its_own_row_tolerance_still_pairs(self):
        K = np.full((3, 3), 1 / 3)
        K[0, 0] += 5e-11
        with pytest.raises(InvalidKernel):
            StochasticKernel(K)
        rev = check_reversibility(StochasticKernel(K, row_tol=1e-10), np.full(3, 1 / 3))
        assert rev.reversibility_defect == 0.0

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
    def test_constant_function(self):
        rev = pair(TWO_STATE, UNIFORM2)
        assert dirichlet_form(rev, [3.0, 3.0]) == pytest.approx(0.0, abs=1e-15)

    def test_two_state_hand_value(self):
        # (1/2)(0.5 * 0.3 * 4 + 0.5 * 0.3 * 4) = 0.6
        rev = pair(TWO_STATE, UNIFORM2)
        assert dirichlet_form(rev, [1.0, -1.0]) == pytest.approx(0.6, abs=1e-12)

    def test_independence_kernel_gives_variance(self):
        w = random_probvec(21, 4)
        K = np.tile(w.weights, (4, 1))
        rev = pair(K, w)
        f = np.array([0.3, -1.0, 2.0, 0.1])
        f0 = f - w.weights @ f
        expected = float(w.weights @ (f0 * f0))
        assert dirichlet_form(rev, f) == pytest.approx(expected, abs=1e-12)

    def test_formulas_cross_checked_on_random_inputs(self):
        # dirichlet_form raises CrossCheckFailure internally if the double
        # sum and the inner-product form disagree; exercise it broadly.
        rng = rng_from(3)
        for seed in range(25):
            w = random_probvec(seed, 5)
            K = random_reversible_kernel(seed + 50, w)
            rev = pair(K, w)
            dirichlet_form(rev, rng.standard_normal(5))

    def test_accepts_function_vec(self):
        rev = pair(TWO_STATE, UNIFORM2)
        assert dirichlet_form(rev, FunctionVec(np.array([1.0, -1.0]))) == pytest.approx(0.6)


class TestDirichletRatioExtrema:
    def test_independence(self):
        w = random_probvec(4, 3)
        K = np.tile(w.weights, (3, 1))
        lo, hi = dirichlet_ratio_extrema(pair(K, w))
        assert lo == pytest.approx(1.0, abs=1e-12)
        assert hi == pytest.approx(1.0, abs=1e-12)

    def test_identity(self):
        lo, hi = dirichlet_ratio_extrema(pair(np.eye(3), [0.3, 0.3, 0.4]))
        assert lo == pytest.approx(0.0, abs=1e-12)
        assert hi == pytest.approx(0.0, abs=1e-12)

    def test_two_state(self):
        lo, hi = dirichlet_ratio_extrema(pair(TWO_STATE, UNIFORM2))
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


class TestTStep:
    def test_t1_is_identity_map(self):
        K = StochasticKernel(TWO_STATE)
        np.testing.assert_array_equal(t_step(K, 1).matrix, K.matrix)

    def test_swap_squares_to_identity(self):
        K = t_step([[0.0, 1.0], [1.0, 0.0]], 2)
        np.testing.assert_allclose(K.matrix, np.eye(2), atol=1e-15)

    def test_two_state_square(self):
        K = t_step(TWO_STATE, 2)
        np.testing.assert_allclose(K.matrix, [[0.58, 0.42], [0.42, 0.58]], atol=1e-15)

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
                revt = check_reversibility(t_step(rev.kernel, t).matrix, w)
                normt = spectral_summary(revt).operator_norm
                assert normt == pytest.approx(norm1**t, abs=1e-9)

    def test_rejects_nonpositive_t(self):
        with pytest.raises(ValueError):
            t_step(TWO_STATE, 0)


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

    def test_odd_power_needs_psd(self):
        rev = pair([[0.0, 1.0], [1.0, 0.0]], UNIFORM2)
        with pytest.raises(PreconditionUnmet):
            spectral_jensen_check(rev, [1.0, -1.0], 3)

    def test_constant_function_rejected(self):
        rev = pair(TWO_STATE, UNIFORM2)
        with pytest.raises(ZeroFunction):
            spectral_jensen_check(rev, [2.0, 2.0], 2)

    def test_random_sweep_small(self):
        rng = rng_from(17)
        for seed in range(20):
            w = random_probvec(seed, int(rng.integers(2, 7)))
            K = random_reversible_kernel(seed + 900, w)
            rev = pair(K, w)
            f = rng.standard_normal(w.n)
            for t in (2, 4, 6, 8):
                assert spectral_jensen_check(rev, f, t).status == "pass"
