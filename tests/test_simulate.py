"""Trajectory simulation, batch means, and cross-validation against exact values."""

from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridgibbs import (
    batch_means_variance,
    canonicalize,
    check_reversibility,
    cross_validate_variance,
    exact_random_scan,
    mixing_curve,
    simulate,
    write_trajectory,
)
from hybridgibbs._stepper_py import walk
from hybridgibbs.errors import (
    DimensionMismatch,
    InvalidArgument,
    InvalidStart,
    NotAbsolutelyContinuous,
    TooFewBatches,
)
from hybridgibbs.simulate import kernel_fingerprint

TWO_STATE = check_reversibility([[0.7, 0.3], [0.3, 0.7]], [0.5, 0.5])
SWAP = check_reversibility([[0.0, 1.0], [1.0, 0.0]], [0.5, 0.5])
IDENTITY = check_reversibility(np.eye(3), [0.2, 0.3, 0.5])
SKEWED = check_reversibility(
    [[0.1, 0.3, 0.6], [0.2, 0.3, 0.5], [0.24, 0.3, 0.46]], [0.2, 0.3, 0.5]
)


class TestSimulate:
    def test_fingerprint_hashes_rows_of_a_fortran_ordered_kernel(self):
        rev = check_reversibility(np.asfortranarray(SKEWED.kernel.matrix), SKEWED.stationary)
        assert not rev.kernel.matrix.flags.c_contiguous
        assert kernel_fingerprint(rev) == kernel_fingerprint(SKEWED) == "720a413e3e16c6d3"

    def test_identity_kernel_constant(self):
        traj = simulate(IDENTITY, 1, 50, seed=3)
        assert set(traj.states.tolist()) == {1}

    def test_swap_alternates(self):
        traj = simulate(SWAP, 0, 7, seed=0)
        assert traj.states.tolist() == [0, 1, 0, 1, 0, 1, 0, 1]

    def test_deterministic_given_seed(self):
        a = simulate(TWO_STATE, 0, 1000, seed=42)
        b = simulate(TWO_STATE, 0, 1000, seed=42)
        np.testing.assert_array_equal(a.states, b.states)
        c = simulate(TWO_STATE, 0, 1000, seed=43)
        assert not np.array_equal(a.states, c.states)

    def test_golden_trajectories(self):
        # Pinned paths: any change to the Philox stream, the start draw or the
        # inverse-CDF rule (smallest j with cum[state, j] > u) shows here.
        assert simulate(SKEWED, 0, 19, seed=2027).states.tolist() == [
            0, 2, 0, 1, 0, 2, 2, 0, 1, 0, 0, 1, 0, 1, 2, 1, 2, 1, 1, 0,
        ]
        assert simulate(SKEWED, SKEWED.stationary, 19, seed=2027).states.tolist() == [
            1, 0, 1, 0, 2, 2, 0, 1, 0, 0, 1, 0, 1, 2, 1, 2, 1, 1, 0, 2,
        ]

    def test_occupancy_matches_stationary(self):
        traj = simulate(TWO_STATE, 0, 100_000, seed=2)
        freq = float(np.mean(traj.states == 0))
        assert abs(freq - 0.5) < 0.01

    def test_distribution_start(self):
        traj = simulate(TWO_STATE, TWO_STATE.stationary, 10, seed=5)
        assert traj.states[0] in (0, 1)

    def test_invalid_start(self):
        with pytest.raises(InvalidStart):
            simulate(TWO_STATE, 5, 10, seed=0)
        with pytest.raises(InvalidStart):
            simulate(TWO_STATE, [0.5, 0.25, 0.25], 10, seed=0)

    def test_transitions_have_positive_probability(self):
        traj = simulate(TWO_STATE, 0, 2000, seed=9)
        K = TWO_STATE.kernel.matrix
        probs = K[traj.states[:-1], traj.states[1:]]
        assert np.all(probs > 0)


def full_row_walk(cumulative, uniforms, start):
    """The stepper's rule on full rows: the smallest j with cum[state, j] > u,
    clamped to the last column."""
    rows = [row.tolist() for row in np.asarray(cumulative, dtype=np.float64)]
    last = len(rows[0]) - 1
    state = int(start)
    out = [state]
    for u in np.asarray(uniforms, dtype=np.float64).tolist():
        j = bisect_right(rows[state], u)
        state = j if j <= last else last
        out.append(state)
    return np.array(out, dtype=np.int64)


# Row entries: zeros make sparse rows (at either end too), 1e-18 is absorbed
# by rounding once the running sum is large, and the rest rise.
ENTRY = st.one_of(st.just(0.0), st.just(1e-18), st.floats(min_value=1e-3, max_value=1.0))


@st.composite
def walks(draw):
    """A cumulative matrix, a uniform stream and a start for ``walk``."""
    n = draw(st.integers(min_value=1, max_value=9))
    rows = []
    for _ in range(n):
        entries = np.array(draw(st.lists(ENTRY, min_size=n, max_size=n)))
        if entries.max() < 1e-3:
            entries[draw(st.integers(0, n - 1))] = 1.0
        # Rows that end at 1 - 1e-13 leave room above them for the clamp.
        top = draw(st.sampled_from([1.0, 1.0 - 1e-13]))
        rows.append(np.cumsum(entries / entries.sum() * top))
    cum = np.array(rows)
    ties = sorted({float(c) for c in cum.ravel() if c < 1.0})
    u = st.one_of(
        st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        st.sampled_from(ties) if ties else st.just(0.0),
        st.just(1.0 - 1e-14),
        st.just(0.0),
    )
    uniforms = np.array(draw(st.lists(u, min_size=1, max_size=200)))
    return cum, uniforms, draw(st.integers(0, n - 1))


class TestStepper:
    @given(walks())
    @settings(max_examples=200, deadline=None)
    def test_matches_full_row_rule(self, case):
        cum, uniforms, start = case
        np.testing.assert_array_equal(
            walk(cum, uniforms, start), full_row_walk(cum, uniforms, start)
        )

    def test_edge_cases(self):
        # Row 0: zero columns at both ends and an absorbed 1e-18; row 1
        # dense; row 2 ends at 1 - 1e-13, so a draw above or equal to its
        # last value takes the clamp to the last state.
        K = np.array(
            [
                [0.0, 0.5, 1e-18, 0.5, 0.0],
                [0.2, 0.2, 0.2, 0.2, 0.2],
                [0.0, 0.0, 1.0 - 1e-13, 0.0, 0.0],
                [0.0, 0.0, 0.0, 0.0, 1.0],
                [1.0, 0.0, 0.0, 0.0, 0.0],
            ]
        )
        cum = np.cumsum(K, axis=1)
        # Draws equal to cumulative values (0.0, 0.4 and row 2's last) and
        # one above row 2's last value.
        uniforms = np.array([0.0, 0.5, 0.2, 1.0 - 1e-14, cum[2, 2], 0.0, 0.4, cum[2, 2]])
        states = walk(cum, uniforms, 0)
        np.testing.assert_array_equal(states, full_row_walk(cum, uniforms, 0))
        assert states.tolist() == [0, 1, 2, 2, 4, 0, 1, 2, 4]


class TestBatchMeans:
    def test_iid_sequence(self):
        # The independence kernel produces iid draws: the asymptotic variance
        # is the plain variance of f.
        w = np.array([0.3, 0.7])
        indep = check_reversibility(np.tile(w, (2, 1)), w)
        f = np.array([1.0, -1.0])
        traj = simulate(indep, 0, 50_000, seed=11)
        est = batch_means_variance(traj, f, batch=100)
        f0 = f - w @ f
        exact = float(w @ (f0 * f0))
        assert abs(est.estimate - exact) <= 3 * est.standard_error

    def test_two_state_benchmark(self):
        traj = simulate(TWO_STATE, 0, 100_000, seed=12)
        est = batch_means_variance(traj, [1.0, -1.0], batch=1000)
        assert abs(est.estimate - 7 / 3) <= 3 * est.standard_error

    def test_constant_function(self):
        traj = simulate(TWO_STATE, 0, 5000, seed=13)
        est = batch_means_variance(traj, [2.0, 2.0], batch=100)
        assert est.estimate == pytest.approx(0.0, abs=1e-20)

    def test_too_few_batches(self):
        traj = simulate(TWO_STATE, 0, 100, seed=14)
        with pytest.raises(TooFewBatches):
            batch_means_variance(traj, [1.0, -1.0], batch=50)

    @pytest.mark.parametrize(
        "f, error",
        [([1.0], DimensionMismatch), ([1.0, np.nan], InvalidArgument), ([[1.0, -1.0]], InvalidArgument)],
        ids=["short", "nan", "matrix"],
    )
    def test_bad_function_is_a_named_error(self, f, error):
        traj = simulate(TWO_STATE, 0, 100, seed=14)
        assert traj.states.max() == 1
        with pytest.raises(error):
            batch_means_variance(traj, f, batch=5)


class TestCrossValidate:
    def test_two_state_benchmark(self):
        rep = cross_validate_variance(TWO_STATE, [1.0, -1.0], 100_000, seed=15, batch=1000)
        assert rep.status == "pass"
        assert rep.witness["exact"] == pytest.approx(7 / 3, rel=1e-12)

    def test_exact_variance_is_one_solve(self, eig_counts):
        config = canonicalize({"model": {"kind": "random", "sizes": [40, 40], "seed": 1}})
        rev = exact_random_scan(config.build_joint(), config.selection())
        f = np.arange(rev.n) % 40.0
        cross_validate_variance(rev, f, 10_000, seed=1)
        assert not eig_counts["eigh"] and not eig_counts["eigvalsh"]
        assert eig_counts["cholesky"] == {1600: 1}
        assert 1600 not in eig_counts["solve"]

    def test_random_pairs_mostly_pass(self):
        from hybridgibbs import exact_random_scan
        from hybridgibbs.randomgen import random_joint, rng_from

        passed = 0
        for seed in range(12):
            joint = random_joint(seed + 600)
            T = exact_random_scan(joint)
            f = rng_from(seed).standard_normal(T.n)
            rep = cross_validate_variance(T, f, 30_000, seed=seed, batch=150)
            passed += rep.status == "pass"
        assert passed >= 11


class TestMixingCurve:
    def test_stationary_start_stays_at_zero(self):
        curve = mixing_curve(TWO_STATE, TWO_STATE.stationary, 10)
        np.testing.assert_allclose(curve.distances, 0.0, atol=1e-12)
        assert curve.fitted_rate == 0.0

    def test_two_state_point_mass(self):
        curve = mixing_curve(TWO_STATE, [1.0, 0.0], 20)
        expected = [0.4**t for t in range(21)]
        np.testing.assert_allclose(curve.distances, expected, atol=1e-12)
        assert curve.fitted_rate == pytest.approx(0.4, abs=1e-9)

    def test_fitted_rate_matches_norm(self):
        from hybridgibbs import exact_random_scan, spectral_summary
        from hybridgibbs.randomgen import random_joint

        for seed in range(8):
            joint = random_joint(seed + 700)
            T = exact_random_scan(joint)
            s = spectral_summary(T)
            mu0 = np.zeros(T.n)
            mu0[0] = 1.0
            curve = mixing_curve(T, mu0, 50)
            assert curve.fitted_rate <= s.operator_norm + 1e-6
            # The tail slope identifies the norm once the subdominant mode
            # has decayed away within the fitted window.
            mags = np.sort(np.abs(s.eigenvalues))
            second = mags[-2] if mags.size > 1 else 0.0
            separated = s.operator_norm > 1e-3 and second / s.operator_norm < 0.88
            if separated:
                assert curve.fitted_rate == pytest.approx(s.operator_norm, abs=1e-3)

    def test_norm_from_eigenvalues_alone(self, eig_counts):
        from hybridgibbs import spectral_summary
        from hybridgibbs.randomgen import random_joint

        T = exact_random_scan(random_joint(701, sizes=(10, 10)))
        mu0 = np.zeros(T.n)
        mu0[0] = 1.0
        curve = mixing_curve(T, mu0, 20)
        assert not eig_counts["eigh"]
        assert curve.operator_norm == pytest.approx(
            spectral_summary(T).operator_norm, rel=0, abs=1e-12
        )

    def test_monotone_for_psd(self):
        curve = mixing_curve(TWO_STATE, [0.9, 0.1], 30)
        diffs = np.diff(curve.distances)
        assert np.all(diffs <= 1e-12)

    def test_absolute_continuity_required(self):
        rev = check_reversibility(np.eye(2), [1.0, 0.0])
        with pytest.raises(NotAbsolutelyContinuous):
            mixing_curve(rev, [0.0, 1.0], 5)


class TestTrajectoryExport:
    def test_format(self, tmp_path):
        traj = simulate(TWO_STATE, 0, 5, seed=21)
        path = tmp_path / "traj.txt"
        write_trajectory(traj, path)
        lines = path.read_text().splitlines()
        assert lines[0] == f"# seed=21 kernel={traj.fingerprint}"
        assert [int(x) for x in lines[1:]] == traj.states.tolist()
