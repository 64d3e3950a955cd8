"""Trajectory simulation, batch means, and cross-validation against exact values."""

import os
import tracemalloc
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
from hybridgibbs import _stepper_py
from hybridgibbs._stepper_py import _CHUNK, _FEW, walk
from hybridgibbs.errors import (
    DimensionMismatch,
    InvalidArgument,
    InvalidStart,
    NotAbsolutelyContinuous,
    SpaceTooLarge,
    TooFewBatches,
)
from hybridgibbs.randomgen import random_probvec, random_reversible_kernel, rng_from
from hybridgibbs.simulate import _TRAJECTORY_CHUNK, kernel_fingerprint
from hybridgibbs.spectral import eigvals_summary

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


def permutation(p):
    """The cumulative rows of the chain that moves i to p[i]."""
    K = np.zeros((len(p), len(p)))
    K[np.arange(len(p)), p] = 1.0
    return np.cumsum(K, axis=1)


def random_rows(rng, n, zeros=0.0):
    """Cumulative rows of a random chain; each entry is 0 with probability
    ``zeros``, and every row keeps at least one positive entry."""
    K = rng.random((n, n)) * (rng.random((n, n)) >= zeros)
    K[np.arange(n), rng.integers(0, n, n)] += 0.5
    return np.cumsum(K / K.sum(axis=1, keepdims=True), axis=1)


# Enough chunks for the lockstep passes, and a remainder.
CHUNKS = _FEW + 8
STEPS = CHUNKS * _CHUNK + 77


def bipartite(rng):
    """A chain that alternates between {0, 1, 2} and {3, 4, 5}."""
    K = np.zeros((6, 6))
    K[:3, 3:] = rng.random((3, 3)) + 0.1
    K[3:, :3] = rng.random((3, 3)) + 0.1
    return np.cumsum(K / K.sum(axis=1, keepdims=True), axis=1)


def absorbing(rng):
    """State 0 absorbs; the others reach it with positive probability."""
    cum = random_rows(rng, 6)
    cum[0] = 1.0
    return cum


CHAINS = {
    "dense": lambda rng: random_rows(rng, 7),
    "sparse": lambda rng: random_rows(rng, 12, zeros=0.7),
    "wide": lambda rng: random_rows(rng, 300, zeros=0.5),
    "swap": lambda rng: permutation([1, 0]),
    "five-cycle": lambda rng: permutation([1, 2, 3, 4, 0]),
    "identity": lambda rng: np.cumsum(np.eye(3), axis=1),
    "bipartite": bipartite,
    "absorbing": absorbing,
}


def jumpy_cycle(n):
    """The cumulative rows of an n-cycle that jumps uniformly with
    probability 2%."""
    K = np.full((n, n), 0.02 / n)
    K[np.arange(n), (np.arange(n) + 1) % n] += 0.98
    return np.cumsum(K, axis=1)


def rows_of(n, width):
    """The cumulative rows of an n-state chain whose rows each keep
    ``width`` values: uniform over the first ``width`` states."""
    K = np.zeros((n, n))
    K[:, :width] = 1.0 / width
    return np.cumsum(K, axis=1)


class TestGuide:
    """The guide's bucket count follows the chain: 16 buckets a kept value
    of the widest row, within 2^16 entries, and never fewer than the power
    of two at or above that row's width."""

    @pytest.mark.parametrize(
        "n, width, buckets", [(64, 64, 512), (1600, 80, 128), (512, 23, 64), (300, 300, 512)]
    )
    def test_bucket_count(self, n, width, buckets):
        look = _stepper_py._Lookup(_stepper_py._Rows(rows_of(n, width)), 1)
        assert look.buckets == buckets
        widest = 1 << (width - 1).bit_length()
        if buckets > widest:
            assert look.guide.size == n * (buckets + 1) <= 2**16

    def test_draws_on_bucket_edges_and_kept_values(self):
        # A dense 64-state chain gets 512 buckets.  Uniform rows put every
        # kept value on a bucket edge k / 512; the random rows put theirs
        # inside buckets.  Draws sit on every edge and every kept value.
        cum = random_rows(rng_from(11), 64)
        cum[::3] = rows_of(64, 64)[0]
        assert _stepper_py._Lookup(_stepper_py._Rows(cum), 1).buckets == 512
        rng = rng_from(12)
        uniforms = rng.random(STEPS)
        marks = np.concatenate([np.arange(512) / 512, np.unique(cum[cum < 1.0])])
        uniforms[rng.integers(0, STEPS, STEPS // 2)] = rng.choice(marks, STEPS // 2)
        for start in (0, 63):
            np.testing.assert_array_equal(
                walk(cum, uniforms, start), full_row_walk(cum, uniforms, start)
            )


class TestLockstepStepper:
    """Chunks advanced in lockstep and then repaired give the full-row
    rule's path, bit for bit, with or without coupling."""

    @pytest.mark.parametrize("chain", CHAINS)
    @pytest.mark.parametrize("start", [0, -1], ids=["first", "last"])
    def test_matches_full_row_rule(self, chain, start):
        rng = rng_from(len(chain))
        cum = CHAINS[chain](rng)
        start %= cum.shape[0]
        uniforms = rng.random(STEPS)
        np.testing.assert_array_equal(
            walk(cum, uniforms, start), full_row_walk(cum, uniforms, start)
        )

    def test_ties_and_the_clamp_at_chunk_boundaries(self):
        # Row 0 has zero columns at both ends and an absorbed 1e-18; row 2
        # ends at 1 - 1e-13, so a draw at or above its last value takes the
        # clamp to the last state.
        K = np.array(
            [
                [0.0, 0.5, 1e-18, 0.5, 0.0],
                [0.2, 0.2, 0.2, 0.2, 0.2],
                [0.0, 0.0, 1.0 - 1e-13, 0.0, 0.0],
                [0.3, 0.0, 0.3, 0.0, 0.4],
                [0.25, 0.25, 0.0, 0.25, 0.25],
            ]
        )
        cum = np.cumsum(K, axis=1)
        rng = rng_from(8)
        uniforms = rng.random(STEPS)
        ties = np.concatenate([np.unique(cum[cum < 1.0]), [1.0 - 1e-14, 0.0]])
        # The draws at, just before and just after every chunk boundary.
        around = np.arange(1, CHUNKS + 1)[:, None] * _CHUNK + np.array([-1, 0, 1])
        uniforms[around.ravel()] = rng.choice(ties, around.size)
        uniforms[rng.integers(0, STEPS, 2000)] = rng.choice(ties, 2000)
        for start in range(5):
            np.testing.assert_array_equal(
                walk(cum, uniforms, start), full_row_walk(cum, uniforms, start)
            )

    @given(walks(), st.integers(0, 2**32 - 1), st.integers(0, 3 * _CHUNK))
    @settings(max_examples=25, deadline=None)
    def test_generated_rows(self, case, seed, extra):
        cum, _uniforms, start = case
        rng = rng_from(seed)
        uniforms = rng.random(_FEW * _CHUNK + extra)
        ties = np.append(cum[cum < 1.0], [0.0, 1.0 - 1e-14])
        uniforms[rng.integers(0, uniforms.size, 500)] = rng.choice(ties, 500)
        np.testing.assert_array_equal(
            walk(cum, uniforms, start), full_row_walk(cum, uniforms, start)
        )

    @pytest.mark.parametrize("u", [1.0, 2.5, -0.5, np.inf, -np.inf, np.nan])
    def test_a_draw_outside_the_unit_interval_is_a_scalar_step(self, u):
        # The rule still holds for it: the smallest column above u, or the
        # clamp when there is none, as for NaN.
        cum = random_rows(rng_from(6), 7, zeros=0.3)
        uniforms = rng_from(7).random(STEPS)
        uniforms[[5, STEPS // 2, STEPS - 1]] = u
        np.testing.assert_array_equal(walk(cum, uniforms, 0), full_row_walk(cum, uniforms, 0))

    def _bisects(self, monkeypatch, cum, start=0):
        """How many steps the scalar loop takes on a path of STEPS steps."""
        calls = []

        def counting(row, u):
            calls.append(1)
            return bisect_right(row, u)

        monkeypatch.setattr(_stepper_py, "bisect_right", counting)
        uniforms = rng_from(4).random(STEPS)
        np.testing.assert_array_equal(
            walk(cum, uniforms, start), full_row_walk(cum, uniforms, start)
        )
        return len(calls)

    def test_a_coupling_chain_is_repaired_in_lockstep(self, monkeypatch):
        # Copies of a dense chain meet within a few steps: the repair rounds
        # mend every chunk, and the scalar loop takes only the remainder.
        assert self._bisects(monkeypatch, random_rows(rng_from(3), 7)) == STEPS - CHUNKS * _CHUNK

    def test_a_crowded_chain_leaves_the_lockstep_pass(self, monkeypatch):
        # A 400-cycle with 2% uniform jumps crowds each row's 400 kept
        # values into [0, 0.02) and [0.98, 1], about 20 of the guide's 512
        # buckets: the forward scans pass far more than _SCANS times a
        # step, and the scalar loop takes the whole path.
        cum = jumpy_cycle(400)
        assert _stepper_py._Lookup(_stepper_py._Rows(cum), 1).buckets == 512
        assert self._bisects(monkeypatch, cum) == STEPS

    def test_a_finer_guide_keeps_a_small_cycle_in_lockstep(self, monkeypatch):
        # A 50-cycle with 2% uniform jumps gets 1,024 buckets, so each
        # row's 50 kept values spread over about 40 of them: the first pass
        # runs to its end, and the path is still the full-row rule's.
        cum = jumpy_cycle(50)
        assert _stepper_py._Lookup(_stepper_py._Rows(cum), 1).buckets == 1024
        first_pass = _stepper_py._first_pass
        ran = []

        def spy(*args):
            ran.append(first_pass(*args))
            return ran[-1]

        monkeypatch.setattr(_stepper_py, "_first_pass", spy)
        assert self._bisects(monkeypatch, cum) < STEPS
        assert len(ran) == 1 and ran[0] is not None

    def test_a_chain_that_never_couples_takes_each_step_once_more(self, monkeypatch):
        # A permutation's copies never meet: the rounds stop at their probe,
        # and the scalar loop re-runs every chunk but the first, once.
        bisects = self._bisects(monkeypatch, permutation([1, 2, 3, 4, 0]))
        assert bisects == STEPS - _CHUNK


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


class TestPathMemory:
    """A path holds its uniforms and its states, 16 bytes a step, and no
    Python object per step; batch means add one gathered copy of f's values,
    centred in place."""

    STEPS = 200_000

    @pytest.mark.parametrize("run", ["simulate", "cross_validate_variance"])
    def test_peak_bytes_per_step(self, run):
        rng = rng_from(64)
        w = random_probvec(rng, 64)
        rev = check_reversibility(random_reversible_kernel(rng, w), w)
        f = np.arange(64.0)
        calls = {
            "simulate": lambda: simulate(rev, 0, self.STEPS, seed=3),
            "cross_validate_variance": lambda: cross_validate_variance(rev, f, self.STEPS, seed=3),
        }
        tracemalloc.start()
        try:
            calls[run]()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / self.STEPS < 24

    @pytest.mark.skipif(not hasattr(os, "sysconf"), reason="no physical memory size to check")
    @pytest.mark.parametrize("run", ["simulate", "cross_validate_variance"])
    def test_a_path_too_long_for_memory_raises_before_drawing(self, run):
        calls = {
            "simulate": lambda: simulate(TWO_STATE, 0, 10**12, 0),
            "cross_validate_variance": lambda: cross_validate_variance(
                TWO_STATE, [1.0, -1.0], 10**12, 0
            ),
        }
        tracemalloc.start()
        try:
            with pytest.raises(SpaceTooLarge, match="a path of 1000000000000 steps needs"):
                calls[run]()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_the_cap_is_half_the_physical_memory(self, monkeypatch):
        # 16 pages of 1 KiB: half is 8 KiB, so 511 steps (8,192 bytes with
        # the start) fit and 512 do not.
        sizes = {"SC_PHYS_PAGES": 16, "SC_PAGE_SIZE": 1024}
        monkeypatch.setattr(os, "sysconf", sizes.__getitem__, raising=False)
        assert simulate(TWO_STATE, 0, 511, 0).steps == 511
        with pytest.raises(SpaceTooLarge):
            simulate(TWO_STATE, 0, 512, 0)

    @pytest.mark.parametrize("sysconf", [-1, ValueError, None], ids=["unknown", "unnamed", "absent"])
    def test_no_cap_where_the_system_reports_no_memory(self, monkeypatch, sysconf):
        def report(name):
            if sysconf is ValueError:
                raise ValueError(f"unrecognized configuration name {name!r}")
            return sysconf

        if sysconf is None:
            monkeypatch.delattr(os, "sysconf", raising=False)
        else:
            monkeypatch.setattr(os, "sysconf", report, raising=False)
        assert simulate(TWO_STATE, 0, 5000, 0).steps == 5000

    def test_batch_means_write_neither_the_path_nor_f(self):
        traj = simulate(SKEWED, 0, 5000, seed=13)
        states = traj.states.copy()
        f = np.array([1.0, -2.0, 0.5])
        traj.states.flags.writeable = False
        f.flags.writeable = False
        est = batch_means_variance(traj, f, batch=100)
        assert np.array_equal(traj.states, states) and f.tolist() == [1.0, -2.0, 0.5]
        # The estimate of a separately centred copy, to the last bit.
        used = f[states[1:]][:5000]
        means = (used - used.mean()).reshape(50, 100).mean(axis=1)
        assert est.estimate == 100 * float(np.var(means, ddof=1))


class TestCrossValidate:
    def test_two_state_benchmark(self):
        rep = cross_validate_variance(TWO_STATE, [1.0, -1.0], 100_000, seed=15, batch=1000)
        assert rep.status == "pass"
        assert rep.witness["exact"] == pytest.approx(7 / 3, rel=1e-12)

    def test_exact_variance_is_one_solve(self, eig_counts):
        # The exact chain carries its Gram root, of order 40 + 40 = 80.
        config = canonicalize({"model": {"kind": "random", "sizes": [40, 40], "seed": 1}})
        rev = exact_random_scan(config.build_joint(), config.selection())
        f = np.arange(rev.n) % 40.0
        cross_validate_variance(rev, f, 10_000, seed=1)
        assert not eig_counts["eigh"] and not eig_counts["eigvalsh"]
        assert eig_counts["cholesky"] == {80: 1}
        assert 1600 not in eig_counts["solve"]

    def test_random_pairs_mostly_pass(self):
        from hybridgibbs import exact_random_scan
        from hybridgibbs.randomgen import random_joint

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

    def test_a_curve_too_long_for_memory_raises_before_allocating(self, monkeypatch):
        # 16 pages of 1 KiB: half is 8 KiB, so 1,023 steps (1,024 distances
        # of 8 bytes) fit and 1,024 do not.
        sizes = {"SC_PHYS_PAGES": 16, "SC_PAGE_SIZE": 1024}
        monkeypatch.setattr(os, "sysconf", sizes.__getitem__, raising=False)
        assert mixing_curve(TWO_STATE, [1.0, 0.0], 1023).distances.size == 1024
        tracemalloc.start()
        try:
            with pytest.raises(SpaceTooLarge, match="a mixing curve of 1024 steps needs 8200 bytes"):
                mixing_curve(TWO_STATE, [1.0, 0.0], 1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8192

    def test_absolute_continuity_required(self):
        rev = check_reversibility(np.eye(2), [1.0, 0.0])
        with pytest.raises(NotAbsolutelyContinuous):
            mixing_curve(rev, [0.0, 1.0], 5)

    def test_keeps_the_states_the_spectral_routines_keep(self):
        # A birth-death chain with masses proportional to (1, 1e-13, 1e-15):
        # state 2 is below NULL_MASS, but dropping it would leak 0.005 of
        # row 1, so the spectral routines keep all three states.
        w = np.array([1.0, 1e-13, 1e-15])
        w /= w.sum()
        K = np.array([[1.0 - 5e-14, 5e-14, 0.0], [0.5, 0.495, 0.005], [0.0, 0.5, 0.5]])
        rev = check_reversibility(K, w)
        assert eigvals_summary(rev).dropped_states == ()
        assert mixing_curve(rev, [0.0, 0.0, 1.0], 3).distances[0] > 0.0
        curve = mixing_curve(rev, [0.0, 1.0, 0.0], 40)
        mu, direct = np.array([0.0, 1.0, 0.0]), []
        for _ in range(41):
            direct.append(np.sqrt(np.sum((mu - w) ** 2 / w)))
            mu = mu @ K
        np.testing.assert_allclose(curve.distances, direct, rtol=1e-12, atol=0.0)
        assert curve.fitted_rate <= curve.operator_norm
        assert curve.fitted_rate == pytest.approx(curve.operator_norm, abs=1e-4)


class TestTrajectoryExport:
    def test_format(self, tmp_path):
        traj = simulate(TWO_STATE, 0, 5, seed=21)
        path = tmp_path / "traj.txt"
        write_trajectory(traj, path)
        lines = path.read_text().splitlines()
        assert lines[0] == f"# seed=21 kernel={traj.fingerprint}"
        assert [int(x) for x in lines[1:]] == traj.states.tolist()

    @pytest.mark.parametrize(
        "length",
        [2, _TRAJECTORY_CHUNK, _TRAJECTORY_CHUNK + 1, 3 * _TRAJECTORY_CHUNK - 1],
        ids=["two", "one-chunk", "one-chunk-plus-one", "three-chunks-minus-one"],
    )
    def test_chunked_writer_matches_the_per_line_writer(self, tmp_path, length):
        def write_per_line(traj, path):
            # The writer write_trajectory replaced: one write per state.
            with open(path, "w") as fh:
                fh.write(f"# seed={traj.seed} kernel={traj.fingerprint}\n")
                for s in traj.states:
                    fh.write(f"{int(s)}\n")

        rng = rng_from(5)
        w = random_probvec(rng, 64)
        rev = check_reversibility(random_reversible_kernel(rng, w), w)
        traj = simulate(rev, 0, length - 1, seed=3)
        assert traj.states.size == length
        write_trajectory(traj, tmp_path / "chunked.txt")
        write_per_line(traj, tmp_path / "per-line.txt")
        assert (tmp_path / "chunked.txt").read_bytes() == (tmp_path / "per-line.txt").read_bytes()
