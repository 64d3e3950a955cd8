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

from .approximators import EXACT_SPEC, Exact, checked_spec, stacked_kernels
from .errors import InvalidBlockSize, NotTwoBlock, positive_int
from .slicemodel import SliceModel, _level_pairs
from .space import conditional_joint, marginal, selection_probs, slices
from .spectral import check_reversibility, checked_stack


class ConditionalTable:
    """Every conditional of coordinate ``i`` of a joint, as stacked arrays.

    ``idx`` is the (Y, d) state indices of the coordinate's slices in
    ``complement_configs`` order, ``live`` the rows of positive mass,
    ``configs`` their complements and ``targets`` their conditionals, one
    per row.  A rule's kernels for the L live slices are built and verified
    on first use, as one (L, d, d) stack, and kept as long as the table;
    every chain and quality entry reads this one stack.
    """

    def __init__(self, joint, i):
        self.i = i
        self.idx, w = slices(joint.space, (i,), joint.weights)
        live, self.targets = _conditionals(w)
        self.live = np.flatnonzero(live)
        configs = joint.space.complement_configs((i,))
        self.configs = [y for y, ok in zip(configs, live) if ok]
        self._kernels = {}

    def kernels(self, rule):
        """``rule``'s kernel for each live slice as ``make_approximator``
        pairs it: built as ``kernel_for_target`` builds it, clamped at 0,
        and verified stochastic and reversible for its target, all in one
        batch, which raises the named error of the first slice that fails."""
        if rule not in self._kernels:
            stack = stacked_kernels(self.targets, rule, [(self.i, y) for y in self.configs])
            self._kernels[rule] = checked_stack(stack, self.targets)
        return self._kernels[rule]


def _conditionals(w):
    """(live, targets) for the raw slice weights ``w``, one slice per last
    axis: the mask of slices of positive mass and their conditionals,
    divided by their sums as ``ProbVec`` divides them."""
    total = w.sum(axis=-1)
    live = total > 0.0
    return live, w[live] / total[live][:, None]


def _scatter(T, idx, live, weight, K):
    """Add ``weight`` times each slice's update to T (or each matrix of a
    stack T), for every slice of a block with indices ``idx`` at once: the
    kernels K on the ``live`` slices, the identity on null ones.  The slices
    are disjoint, so each entry takes one term."""
    D = idx.shape[1]
    U = np.broadcast_to(np.eye(D), T.shape[:-2] + idx.shape + (D,)).copy()
    U[live] = K
    T[..., idx[:, :, None], idx[:, None, :]] += weight * U


def _scan_chain(joint, sel, spec, table):
    """Random-scan pair that updates coordinate i with probability p_i by
    ``spec``'s kernels, read from ``table(i)``, a ConditionalTable.  The
    coordinates are added in order, so each diagonal entry sums its terms
    in that order."""
    T = np.zeros((joint.n, joint.n))
    for i, pi in enumerate(sel.weights):
        if pi == 0.0:
            continue
        tab = table(i)
        _scatter(T, tab.idx, tab.live, pi, tab.kernels(spec.rule_for(i)))
    return check_reversibility(T, joint.dist)


def exact_random_scan(joint, p=None):
    """Random-scan Gibbs kernel: pick coordinate i with probability p_i and
    redraw it from its full conditional."""
    return hybrid_random_scan(joint, p)


def hybrid_random_scan(joint, p=None, spec=EXACT_SPEC):
    """Random-scan kernel with each conditional draw replaced by one step of
    the approximating kernel prescribed by ``spec``."""
    sel = selection_probs(p, joint.space.ncoords)
    return _scan_chain(joint, sel, checked_spec(spec), lambda i: ConditionalTable(joint, i))


def block_random_scan(joint, block_size):
    """Random-scan kernel updating a uniformly chosen set of ``block_size``
    coordinates from their joint conditional."""
    T = block_scans(joint.space, joint.weights[None], block_size)[0]
    return check_reversibility(T, joint.dist)


def block_scans(space, W, block_size):
    """``block_random_scan``'s kernel for the joint of each weight row W[y]
    over ``space``, bit for bit, as one (Y, D, D) stack."""
    n = space.ncoords
    ell = positive_int(block_size, "block size")
    if not 1 <= ell <= n - 1:
        raise InvalidBlockSize(f"block size must satisfy 1 <= l <= {n - 1}, got {ell}")
    T = np.zeros((W.shape[0], space.total, space.total))
    weight = 1.0 / comb(n, ell)
    for coords in combinations(range(n), ell):
        idx, w = slices(space, coords, W)
        live, targets = _conditionals(w)
        _scatter(T, idx, live, weight, stacked_kernels(targets, Exact()))
    return T


def inner_block_kernel(joint, coords, y, inner_size):
    """The inner approximation used when a block update of ``coords`` is
    itself carried out by a random scan touching ``inner_size`` coordinates.

    Equals the block random-scan kernel of the conditional joint on the
    slice, so it is reversible with respect to that conditional and psd.
    """
    return block_random_scan(conditional_joint(joint, coords, y), inner_size)


def _check_two_block(joint):
    """NotTwoBlock unless the joint has exactly two coordinates, the two
    blocks of its DA chain."""
    if joint.space.ncoords != 2:
        raise NotTwoBlock("data augmentation needs exactly two coordinates; group the rest first")


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
    _check_two_block(source)
    d1, d2 = source.space.sizes
    fwd, back = np.zeros((d1, d2)), np.zeros((d2, d1))
    # Row y of fwd is the second coordinate's conditional given the first
    # at y, row z of back the first's given the second at z.
    for i, laws in ((1, fwd), (0, back)):
        live, targets = _conditionals(slices(source.space, (i,), source.weights)[1])
        laws[live] = targets
    return marginal(source, (0,)), fwd, back


def _inner_kernels(source, spec, table=None):
    """Yield (z, idx, Q): Q redraws the first block given z on its states
    ``idx``.  For a joint it is ``spec``'s approximator for the first
    coordinate's conditional, on the whole block, for each z of positive
    mass, read from ``table`` (by default a new ConditionalTable); for a
    slice model, level k's kernel on G_k."""
    if isinstance(source, SliceModel):
        for k, members, pair in _level_pairs(source):
            yield k, members, pair.kernel.matrix
        return
    rule = checked_spec(spec).rule_for(0)
    table = table if table is not None else ConditionalTable(source, 0)
    idx = np.arange(source.space.sizes[0])
    for z, Q in zip(table.live, table.kernels(rule)):
        yield z, idx, Q


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
    return _hybrid_marginal_chain(source, _inner_kernels(source, spec), t)


def _hybrid_marginal_chain(source, inner, t=1):
    """``da_hybrid`` with the inner kernels ``inner`` of ``_inner_kernels``,
    added in their order."""
    # Only fwd is read; dropping back at once holds one n x L array, not two.
    m1, fwd = _two_block_parts(source)[:2]
    t = positive_int(t, "t")
    S = np.zeros((m1.n, m1.n))
    for z, idx, Q in inner:
        if t > 1:
            Q = np.linalg.matrix_power(Q, t)
        S[np.ix_(idx, idx)] += fwd[idx, z : z + 1] * Q
    return _marginal_chain(S, m1)
