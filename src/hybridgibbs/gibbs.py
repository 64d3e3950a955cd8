"""Construction of random-scan, block and data-augmentation kernels.

All builders return a ReversiblePair verified against the designated
stationary distribution: the joint for scan chains, the first-block marginal
for data-augmentation chains.  Rows belonging to states outside the support
of the joint get an identity update; those states carry no stationary mass,
so the convention is invisible to the mean-zero theory while keeping every
row stochastic.
"""

from itertools import combinations
from math import comb

import numpy as np

from .approximators import EXACT_SPEC, kernel_for_target, make_approximator
from .errors import InvalidBlockSize, NotTwoBlock
from .space import conditional, conditional_joint, marginal, selection_probs
from .spectral import check_reversibility

_BUILD_TOL = 1e-10


def _accumulate_block_updates(joint, T, weight, coords, inner):
    """Add ``weight`` times the coords-update kernel to T.

    ``inner(coords, y, target)`` returns the update matrix on the slice where
    the complement equals y and the conditional there is ``target`` (raw,
    unnormalized slice weights).  Null slices get the identity.
    """
    space = joint.space
    w = joint.weights
    for y in space.complement_configs(coords):
        idx = space.subspace_indices(coords, y)
        slice_w = w[idx]
        total = slice_w.sum()
        if total <= 0.0:
            block = np.eye(idx.size)
        else:
            block = inner(coords, y, slice_w / total)
        T[np.ix_(idx, idx)] += weight * block


def exact_random_scan(joint, p=None):
    """Random-scan Gibbs kernel: pick coordinate i with probability p_i and
    redraw it from its full conditional."""
    sel = selection_probs(p, joint.space.ncoords)
    T = np.zeros((joint.n, joint.n))
    for i, pi in enumerate(sel.p):
        if pi == 0.0:
            continue
        _accumulate_block_updates(
            joint, T, pi, (i,), lambda coords, y, target: np.tile(target, (target.size, 1))
        )
    return check_reversibility(T, joint.dist, tol=_BUILD_TOL)


def hybrid_random_scan(joint, p=None, spec=EXACT_SPEC):
    """Random-scan kernel with each conditional draw replaced by one step of
    the approximating kernel prescribed by ``spec``."""
    sel = selection_probs(p, joint.space.ncoords)
    T = np.zeros((joint.n, joint.n))
    for i, pi in enumerate(sel.p):
        if pi == 0.0:
            continue
        rule = spec.rule_for(i)

        def inner(coords, y, target, _rule=rule, _i=i):
            return kernel_for_target(target, _rule, key=(_i, y))

        _accumulate_block_updates(joint, T, pi, (i,), inner)
    return check_reversibility(T, joint.dist, tol=_BUILD_TOL)


def block_random_scan(joint, block_size):
    """Random-scan kernel updating a uniformly chosen set of ``block_size``
    coordinates from their joint conditional."""
    n = joint.space.ncoords
    ell = int(block_size)
    if not 1 <= ell <= n - 1:
        raise InvalidBlockSize(f"block size must satisfy 1 <= l <= {n - 1}, got {ell}")
    T = np.zeros((joint.n, joint.n))
    weight = 1.0 / comb(n, ell)
    for coords in combinations(range(n), ell):
        _accumulate_block_updates(
            joint, T, weight, coords, lambda c, y, target: np.tile(target, (target.size, 1))
        )
    return check_reversibility(T, joint.dist, tol=_BUILD_TOL)


def inner_block_kernel(joint, coords, y, inner_size):
    """The inner approximation used when a block update of ``coords`` is
    itself carried out by a random scan touching ``inner_size`` coordinates.

    Equals the block random-scan kernel of the conditional joint on the
    slice, so it is reversible with respect to that conditional and psd.
    """
    coords = tuple(sorted(coords))
    m = int(inner_size)
    if not 1 <= m < len(coords):
        raise InvalidBlockSize(
            f"inner block size must satisfy 1 <= m < {len(coords)}, got {m}"
        )
    sub = conditional_joint(joint, coords, y)
    return block_random_scan(sub, m)


def _two_block_parts(joint):
    if joint.space.ncoords != 2:
        raise NotTwoBlock(
            "data augmentation needs exactly two coordinates; group the rest first"
        )
    d1, d2 = joint.space.sizes
    m1 = marginal(joint, (0,))
    m2 = marginal(joint, (1,))
    # fwd[y, z] = conditional of the second coordinate given the first.
    fwd = np.zeros((d1, d2))
    for y in range(d1):
        if m1.weights[y] > 0.0:
            fwd[y] = conditional(joint, 1, (y,)).weights
    return d1, d2, m1, m2, fwd


def da_exact(joint):
    """Marginal kernel of the two-block deterministic-scan chain: draw the
    second coordinate from its conditional, then redraw the first."""
    d1, d2, m1, m2, fwd = _two_block_parts(joint)
    # Rows of ``back`` for zero-mass z are never reached (fwd puts no mass
    # there from any supported y) and may stay zero.
    back = np.zeros((d2, d1))
    for z in range(d2):
        if m2.weights[z] > 0.0:
            back[z] = conditional(joint, 0, (z,)).weights
    S = fwd @ back
    for y in range(d1):
        if m1.weights[y] <= 0.0:
            S[y] = 0.0
            S[y, y] = 1.0
    return check_reversibility(S, m1, tol=_BUILD_TOL)


def da_hybrid(joint, spec, t=1):
    """Hybrid two-block marginal kernel: the redraw of the first coordinate is
    replaced by ``t`` steps of the approximating kernel for its conditional."""
    d1, d2, m1, m2, fwd = _two_block_parts(joint)
    t = int(t)
    if t < 1:
        raise ValueError("t must be a positive integer")
    S = np.zeros((d1, d1))
    for z in range(d2):
        if m2.weights[z] <= 0.0:
            continue
        Q = make_approximator(joint, spec, 0, (z,)).kernel.matrix
        if t > 1:
            Q = np.linalg.matrix_power(Q, t)
        S += fwd[:, z : z + 1] * Q
    for y in range(d1):
        if m1.weights[y] <= 0.0:
            S[y] = 0.0
            S[y, y] = 1.0
    return check_reversibility(S, m1, tol=_BUILD_TOL)
