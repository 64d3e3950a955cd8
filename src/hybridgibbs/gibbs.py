"""Construction of random-scan, block and data-augmentation kernels.

All builders return a ReversiblePair verified against the designated
stationary distribution: the joint for scan chains, the first-block marginal
for data-augmentation (DA) chains, whose builders also take a SliceModel.
Rows belonging to states outside the support of the joint get an identity
update; those states carry no stationary mass, so the convention is
invisible to the mean-zero theory while keeping every row stochastic.
"""

from itertools import combinations
from math import comb

import numpy as np

from .approximators import EXACT_SPEC, kernel_for_target, make_approximator
from .errors import InvalidBlockSize, InvalidSpec, NotTwoBlock, positive_int
from .slicemodel import SliceModel, _level_pair
from .space import conditional, conditional_joint, marginal, selection_probs
from .spectral import check_reversibility


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
    return hybrid_random_scan(joint, p)


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
    return check_reversibility(T, joint.dist)


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
    return check_reversibility(T, joint.dist)


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


def _two_block_parts(source):
    """(m1, fwd, back) of the DA chain: the first block's marginal, the law
    fwd[y] of the second block given the first and the law back[z] of the
    first given the second, zero at null states.  A slice model is the joint
    of (point, level): the height drawn at y covers the interval
    (v_{k-1}, v_k] whole when y is in G_k, so fwd[y, k] = (v_k - v_{k-1}) /
    density(y) there, and back[k] is uniform on G_k.  No n L-state joint is
    built."""
    if isinstance(source, SliceModel):
        density, levels = source.density, source.levels
        lower = np.concatenate(([0.0], levels[:-1]))
        # Column k is G_k, the points above the level's lower end v_{k-1}.
        mask = density[:, None] > lower[None, :]
        lengths = levels - lower
        fwd = np.divide(
            lengths[None, :], density[:, None], out=np.zeros(mask.shape), where=mask
        )
        back = mask.T / mask.sum(axis=0)[:, None]
        return source.target(), fwd, back
    if source.space.ncoords != 2:
        raise NotTwoBlock(
            "data augmentation needs exactly two coordinates; group the rest first"
        )
    d1, d2 = source.space.sizes
    m1 = marginal(source, (0,))
    m2 = marginal(source, (1,))
    fwd = np.zeros((d1, d2))
    for y in range(d1):
        if m1.weights[y] > 0.0:
            fwd[y] = conditional(source, 1, (y,)).weights
    back = np.zeros((d2, d1))
    for z in range(d2):
        if m2.weights[z] > 0.0:
            back[z] = conditional(source, 0, (z,)).weights
    return m1, fwd, back


def _inner_kernels(source, spec):
    """Yield (z, idx, pair): ``pair`` redraws the first block given z on its
    states ``idx``.  For a joint it is ``spec``'s approximator for the first
    coordinate's conditional, on the whole block, for each z of positive
    mass; for a slice model, level k's kernel on G_k."""
    if isinstance(source, SliceModel):
        for k, members in enumerate(source.level_sets):
            yield k, members, _level_pair(source, k)
        return
    if spec is None:
        raise InvalidSpec("an approximator spec is required for joint models")
    idx = np.arange(source.space.sizes[0])
    m2 = marginal(source, (1,)).weights
    for z in range(source.space.sizes[1]):
        if m2[z] > 0.0:
            yield z, idx, make_approximator(source, spec, 0, (z,))


def _marginal_chain(S, m1):
    """Give the null states of m1 identity rows, then pair S with m1."""
    for y in np.flatnonzero(m1.weights <= 0.0):
        S[y] = 0.0
        S[y, y] = 1.0
    return check_reversibility(S, m1)


def da_exact(source):
    """Marginal kernel of the two-block deterministic-scan chain: draw the
    second block given the first, then redraw the first.  For a SliceModel
    this is the exact slice sampler: a height uniform on (0, density(y)),
    then a point uniform on the level set of that height."""
    m1, fwd, back = _two_block_parts(source)
    return _marginal_chain(fwd @ back, m1)


def da_hybrid(source, spec=None, t=1):
    """Hybrid two-block marginal kernel: the redraw of the first block is
    replaced by ``t`` steps of its inner kernel: ``spec``'s approximator,
    which a joint requires, or a SliceModel's level kernel."""
    # Only fwd is read; dropping back at once holds one n x L array, not two.
    m1, fwd = _two_block_parts(source)[:2]
    t = positive_int(t, "t")
    S = np.zeros((m1.n, m1.n))
    for z, idx, pair in _inner_kernels(source, spec):
        Q = pair.kernel.matrix
        if t > 1:
            Q = np.linalg.matrix_power(Q, t)
        S[np.ix_(idx, idx)] += fwd[idx, z : z + 1] * Q
    return _marginal_chain(S, m1)
