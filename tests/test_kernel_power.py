"""t-step inner kernels of the hybrid data-augmentation chain, read from their
spectra: K^t = D^{-1/2} V Lambda^t V^T D^{1/2} (``spectral._kernel_power``).

Repeated multiplication is kept here as the reference at small t; past it,
every power must still be a verified pair whose rows sum to 1, for reducible
and periodic inner kernels too."""

import numpy as np
import pytest

from hybridgibbs import (
    ApproximatorSpec,
    ExplicitMatrix,
    Lazy,
    MetropolisIndep,
    MetropolisRW,
    ReversiblePair,
    check_reversibility,
    da_exact,
    da_hybrid,
    joint_from_weights,
    spectral_jensen_check,
)
from hybridgibbs.gibbs import _inner_kernels, _two_block_parts
from hybridgibbs.randomgen import random_joint, random_slice_model, rng_from
from hybridgibbs.spectral import _kernel_power, _powers

HUGE = 10**400
# t = 2**k for every k <= 1100 in steps of 50, and t past the float range.
POWERS = [2**k for k in range(0, 1101, 50)] + [HUGE]
SMALL = range(2, 9)
LAZY_2X2 = (joint_from_weights((2, 2), [0.1, 0.2, 0.3, 0.4]), ApproximatorSpec(Lazy(0.4)))


def matrix_power_chain(source, spec, t):
    """``da_hybrid``'s matrix by repeated multiplication of each inner
    kernel: the reference at small t."""
    m1, fwd = _two_block_parts(source)[:2]
    S = np.zeros((m1.n, m1.n))
    for z, idx, Q, _w in _inner_kernels(source, spec):
        S[np.ix_(idx, idx)] += fwd[idx, z : z + 1] * np.linalg.matrix_power(Q, t)
    for y in np.flatnonzero(m1.weights <= 0.0):
        S[y] = np.eye(m1.n)[y]
    return S


def random_rule_joint(seed):
    """A random joint of 2-5 by 2-4 states under Lazy(0.3), MetropolisRW(1)
    or MetropolisIndep, by seed."""
    rng = rng_from(seed)
    sizes = (int(rng.integers(2, 6)), int(rng.integers(2, 5)))
    rule = (Lazy(0.3), MetropolisRW(1), MetropolisIndep())[seed % 3]
    return random_joint(rng, sizes=sizes), ApproximatorSpec(rule)


def class_kernel(pi, labels, eps):
    """eps I + (1 - eps) times the redraw from pi restricted to each state's
    class: reversible for pi, with one closed class per label."""
    same = labels[:, None] == labels[None, :]
    redraw = np.where(same, pi[None, :], 0.0)
    return eps * np.eye(pi.size) + (1.0 - eps) * redraw / redraw.sum(axis=1, keepdims=True)


def reducible_joint(seed):
    """A random joint whose inner kernels each have 2 or 3 closed classes."""
    rng = rng_from(seed)
    d1, d2 = int(rng.integers(3, 7)), int(rng.integers(2, 4))
    W = rng.random((d2, d1)) + 0.05  # row z: the first coordinate's weights given z
    tables = {}
    for z in range(d2):
        k = int(rng.integers(2, 4))
        labels = np.concatenate([np.arange(k), rng.integers(0, k, d1 - k)])
        rng.shuffle(labels)
        tables[(0, (z,))] = class_kernel(W[z] / W[z].sum(), labels, float(rng.uniform(0, 0.9)))
    return joint_from_weights((d1, d2), W.ravel()), ApproximatorSpec(ExplicitMatrix(tables))


CASES = (
    [("lazy-2x2", LAZY_2X2)]
    + [(f"rule-{s}", random_rule_joint(100 + s)) for s in range(20)]
    + [(f"slice-{s}", (random_slice_model(200 + s), None)) for s in range(20)]
    + [(f"reducible-{s}", reducible_joint(300 + s)) for s in range(40)]
)


def rows_off(rev):
    return float(np.abs(rev.kernel.matrix.sum(axis=1) - 1.0).max())


class TestPowerRoute:
    @pytest.mark.parametrize("name, case", CASES, ids=[name for name, _ in CASES])
    def test_every_power_is_a_verified_pair(self, name, case):
        source, spec = case
        for t in POWERS:
            rev = da_hybrid(source, spec, t)
            assert isinstance(rev, ReversiblePair)
            assert rows_off(rev) <= 1e-12, t

    @pytest.mark.parametrize("name, case", CASES, ids=[name for name, _ in CASES])
    def test_small_powers_match_repeated_multiplication(self, name, case):
        source, spec = case
        for t in SMALL:
            got = da_hybrid(source, spec, t).kernel.matrix
            np.testing.assert_allclose(got, matrix_power_chain(source, spec, t), rtol=0, atol=1e-13)

    def test_the_two_by_two_lazy_joint_at_every_power_of_two(self):
        for k in range(1101):
            assert rows_off(da_hybrid(*LAZY_2X2, 2**k)) <= 1e-12, k

    def test_a_swap_kernel_keeps_its_parity(self):
        # The first coordinate is uniform given each z, so the swap is
        # reversible for it; its eigenvalue -1 takes its sign from t.
        joint = joint_from_weights((2, 3), [1, 1, 2, 2, 3, 3])
        swap = [[0.0, 1.0], [1.0, 0.0]]
        spec = ApproximatorSpec(ExplicitMatrix({(0, (z,)): swap for z in range(3)}))
        for t in (3, 2**1100 + 1, HUGE + 1):
            np.testing.assert_allclose(da_hybrid(joint, spec, t).kernel.matrix, swap, atol=1e-15)
        for t in (2, 2**1100, HUGE):
            np.testing.assert_allclose(da_hybrid(joint, spec, t).kernel.matrix, np.eye(2), atol=1e-15)

    def test_closed_classes_stay_closed_at_a_huge_power(self):
        # Lazy(eps) on each class tends to the redraw within the class.
        pi = np.array([0.1, 0.2, 0.3, 0.15, 0.25])
        labels = np.array([0, 1, 0, 2, 1])
        K = class_kernel(pi, labels, 0.6)
        for t in (2**1100, HUGE, HUGE + 1):
            np.testing.assert_allclose(
                _kernel_power(K, pi, t), class_kernel(pi, labels, 0.0), rtol=0, atol=1e-15
            )

    def test_a_null_state_is_dropped_and_held(self):
        # Mass 1e-16 of 3 inside the conditional given z = 0: the state is
        # dropped from the spectrum, and its row of K^t is the identity.
        joint = joint_from_weights((3, 2), [1, 1e-16, 1, 1, 1, 1])
        w = np.array([1.0, 1e-16, 1.0]) / (2.0 + 1e-16)
        for rule in (Lazy(0.4), MetropolisRW(1), MetropolisIndep()):
            Q = next(_inner_kernels(joint, ApproximatorSpec(rule)))[2]
            for t in (2, 7, 2**40, HUGE):
                P = _kernel_power(Q, w, t)
                assert P[1].tolist() == [0.0, 1.0, 0.0]
                assert abs(P.sum(axis=1) - 1.0).max() <= 1e-15
                assert rows_off(da_hybrid(joint, ApproximatorSpec(rule), t)) <= 1e-12

    @pytest.mark.parametrize("mass", [1e-4, 1e-6, 1e-8, 1e-10, 1e-12])
    def test_a_near_unit_eigenvalue_moves_no_row(self, mass):
        # A light middle state makes a bottleneck: the inner kernel's second
        # eigenvalue lies within about `mass` of 1, where LAPACK mixes its
        # eigenvector into the stationary one.
        joint = joint_from_weights((3, 2), [1, mass, 1, 1, 1, 1])
        for rule in (MetropolisRW(1), MetropolisIndep(), Lazy(0.999999)):
            for t in (2**20, 2**40, 2**100, HUGE):
                assert rows_off(da_hybrid(joint, ApproximatorSpec(rule), t)) <= 1e-12

    @pytest.mark.parametrize("eps", [0.0, 0.3, 0.9, 0.999])
    def test_lazy_at_a_huge_even_power_is_the_exact_chain(self, eps):
        for seed in range(5):
            joint = random_joint(seed, sizes=(4, 3))
            got = da_hybrid(joint, ApproximatorSpec(Lazy(eps)), HUGE).kernel.matrix
            np.testing.assert_allclose(got, da_exact(joint).kernel.matrix, rtol=0, atol=1e-12)


class TestUnitRule:
    def test_powers_hold_a_modulus_within_1e_12_of_one(self):
        x = np.array([-1.0 + 5e-13, -(1.0 - 2e-12), 1.0 - 2e-12, 1.0 - 5e-13, 1.0 - 1e-15])
        assert _powers(x, HUGE).tolist() == [1.0, 0.0, 0.0, 1.0, 1.0]
        assert _powers(x, HUGE + 1).tolist() == [-1.0, -0.0, 0.0, 1.0, 1.0]

    def test_the_jensen_lhs_takes_no_unit_rule(self):
        # A reducible chain: a closed pair {0, 1} with eigenvalue 1 - 1e-11
        # inside it, and a closed state 2.  f mixes the unit eigenfunction
        # with that one so that its Rayleigh quotient is 1 - 5e-13: held at
        # 1, the lhs would exceed the rhs by 5e-7 at t = 10**6.
        g = 1e-11
        K = [[1 - g / 2, g / 2, 0.0], [g / 2, 1 - g / 2, 0.0], [0.0, 0.0, 1.0]]
        rev = check_reversibility(K, np.full(3, 1 / 3))
        unit, slow = np.array([1.0, 1.0, -2.0]), np.array([1.0, -1.0, 0.0])
        # |unit|^2 = 6 and |slow|^2 = 2 under the uniform law (times 3).
        f = np.sqrt(0.95 / 6) * unit + np.sqrt(0.05 / 2) * slow
        rep = spectral_jensen_check(rev, f, 10**6)
        assert rep.status == "pass"
        assert rep.lhs == pytest.approx((1 - 5e-13) ** 10**6, rel=1e-9)
