"""Finite product state spaces and joint distributions over them.

States are tuples (x_1, ..., x_n) with x_i in {0, ..., d_i - 1}, flattened to
integers by a mixed-radix codec in which the first coordinate varies fastest:
index = sum_i x_i * stride_i with stride_1 = 1 and stride_{i+1} = stride_i *
d_i.  This single bit-exact convention is shared by configs, reports and
tests.  In terms of numpy reshaping it is Fortran order, which several
helpers below exploit.
"""

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    NullConditioningEvent,
    SpaceTooLarge,
)
from .spectral import ProbVec

DEFAULT_STATE_CAP = 10**6
STATE_CAP_ENV = "HYBRIDGIBBS_STATE_CAP"


def state_cap():
    """Maximum allowed number of joint states (overridable via env var)."""
    raw = os.environ.get(STATE_CAP_ENV)
    if raw is None:
        return DEFAULT_STATE_CAP
    try:
        return int(raw)
    except ValueError:
        raise SpaceTooLarge(f"{STATE_CAP_ENV}={raw!r} is not an integer")


@dataclass(frozen=True)
class ProductSpace:
    """Product of finite coordinate spaces with a mixed-radix index codec."""

    sizes: tuple
    strides: tuple = field(init=False)
    total: int = field(init=False)

    def __post_init__(self):
        sizes = tuple(int(d) for d in self.sizes)
        if not sizes or any(d < 1 for d in sizes):
            raise DimensionMismatch("coordinate sizes must be positive integers")
        total = math.prod(sizes)
        cap = state_cap()
        if total > cap:
            raise SpaceTooLarge(f"{total} states exceed the cap of {cap}")
        strides = []
        acc = 1
        for d in sizes:
            strides.append(acc)
            acc *= d
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "strides", tuple(strides))
        object.__setattr__(self, "total", total)

    @property
    def ncoords(self):
        return len(self.sizes)

    def encode(self, config):
        config = tuple(int(v) for v in config)
        if len(config) != len(self.sizes):
            raise DimensionMismatch("configuration has the wrong number of coordinates")
        for v, d in zip(config, self.sizes):
            if not 0 <= v < d:
                raise DimensionMismatch(f"coordinate value {v} out of range [0, {d})")
        return sum(v * s for v, s in zip(config, self.strides))

    def decode(self, index):
        index = int(index)
        if not 0 <= index < self.total:
            raise DimensionMismatch(f"state index {index} out of range [0, {self.total})")
        out = []
        for d in self.sizes:
            out.append(index % d)
            index //= d
        return tuple(out)

    def complement(self, coords):
        return tuple(c for c in range(self.ncoords) if c not in set(coords))

    def subspace_indices(self, coords, fixed):
        """Flat indices of the slice where the complement of ``coords`` equals
        ``fixed``, enumerated with the first listed coordinate fastest."""
        coords = tuple(coords)
        comp = self.complement(coords)
        if len(fixed) != len(comp):
            raise DimensionMismatch(
                f"expected {len(comp)} fixed coordinates, got {len(fixed)}"
            )
        base = 0
        for c, v in zip(comp, fixed):
            v = int(v)
            if not 0 <= v < self.sizes[c]:
                raise DimensionMismatch(f"coordinate value {v} out of range")
            base += v * self.strides[c]
        acc = np.zeros(1, dtype=np.int64)
        for c in coords:
            offsets = np.arange(self.sizes[c], dtype=np.int64) * self.strides[c]
            acc = np.add.outer(offsets, acc).ravel()
        return base + acc

    def complement_configs(self, coords):
        """All configurations of the complement coordinates, first one fastest."""
        comp = self.complement(coords)
        comp_sizes = [self.sizes[c] for c in comp]
        total = math.prod(comp_sizes) if comp_sizes else 1
        for idx in range(total):
            cfg = []
            r = idx
            for d in comp_sizes:
                cfg.append(r % d)
                r //= d
            yield tuple(cfg)


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """Probability weights over a full product space."""

    space: ProductSpace
    dist: ProbVec

    def __post_init__(self):
        if self.dist.n != self.space.total:
            raise DimensionMismatch(
                f"expected {self.space.total} weights for sizes {self.space.sizes}, "
                f"got {self.dist.n}"
            )

    @property
    def weights(self):
        return self.dist.weights

    @property
    def n(self):
        return self.space.total


def joint_from_weights(sizes, weights):
    return JointDistribution(ProductSpace(tuple(sizes)), ProbVec(np.asarray(weights, dtype=float)))


def product_joint(factors):
    """Joint of independent coordinates from per-coordinate weight vectors."""
    factors = [ProbVec(np.asarray(f, dtype=float)) for f in factors]
    # The space checks the state cap before the outer product is built.
    space = ProductSpace(tuple(f.n for f in factors))
    w = np.ones(1)
    for f in factors:
        w = np.multiply.outer(f.weights, w).ravel()
    return JointDistribution(space, ProbVec(w))


def conditional(joint, i, y):
    """Conditional distribution of coordinate ``i`` given the complement ``y``."""
    return conditional_block(joint, (i,), y)


def conditional_block(joint, coords, y):
    """Conditional distribution of the block ``coords`` given complement ``y``.

    Raises NullConditioningEvent when the conditioning slice carries no mass:
    on a finite space the almost-everywhere qualifiers of the theory become
    explicit, and conditioning on a null event is a hard error.
    """
    coords = _check_coords(joint.space, coords)
    idx = joint.space.subspace_indices(coords, tuple(y))
    slice_w = joint.weights[idx]
    if slice_w.sum() <= 0.0:
        raise NullConditioningEvent(
            f"conditioning event {tuple(y)} for coordinates {coords} has zero mass"
        )
    return ProbVec(slice_w)


def conditional_joint(joint, coords, y):
    """The conditional of a coordinate block, as a joint over the sub-space."""
    coords = _check_coords(joint.space, coords)
    dist = conditional_block(joint, coords, y)
    sub = ProductSpace(tuple(joint.space.sizes[c] for c in coords))
    return JointDistribution(sub, dist)


def slices(space, coords, weights):
    """Every slice of the block ``coords`` of ``space`` at once: (idx, w),
    where row y of the (Y, D) index array ``idx`` is
    ``subspace_indices(coords, c)`` for the y-th configuration c of
    ``complement_configs(coords)`` and ``w = weights[..., idx]`` holds the
    raw slice weights of each weight vector in ``weights``, C-contiguous."""
    coords = _check_coords(space, coords)
    D = math.prod(space.sizes[c] for c in coords)
    grid = np.arange(space.total, dtype=np.int64).reshape(space.sizes, order="F")
    # The block's axes first, then the complement's, each first-fastest.
    idx = grid.transpose(coords + space.complement(coords)).reshape((D, -1), order="F")
    # C order, so that each slice's weights are contiguous and sum as
    # ``subspace_indices``' do, bit for bit.
    idx = np.ascontiguousarray(idx.T)
    return idx, np.ascontiguousarray(weights[..., idx])


def marginal(joint, keep):
    """Marginal over the kept coordinates (ascending order, first fastest)."""
    keep = _check_coords(joint.space, keep)
    W = joint.weights.reshape(joint.space.sizes, order="F")
    drop = tuple(c for c in range(joint.space.ncoords) if c not in keep)
    m = W.sum(axis=drop) if drop else W
    return ProbVec(np.asarray(m).ravel(order="F"))


def _check_coords(space, coords):
    coords = tuple(sorted(int(c) for c in coords))
    if not coords:
        raise DimensionMismatch("coordinate set must be nonempty")
    if len(set(coords)) != len(coords):
        raise DimensionMismatch("coordinate set has duplicates")
    if coords[0] < 0 or coords[-1] >= space.ncoords:
        raise DimensionMismatch(f"coordinates {coords} out of range")
    return coords


@dataclass(frozen=True, eq=False)
class SelectionProbs:
    """Coordinate-selection probabilities for a random-scan chain."""

    p: np.ndarray

    def __post_init__(self):
        v = ProbVec(np.asarray(self.p, dtype=float))
        object.__setattr__(self, "p", v.weights)

    @property
    def n(self):
        return self.p.size


def selection_probs(p, ncoords):
    """Coerce ``p`` (or None for uniform) into SelectionProbs of length n."""
    if p is None:
        return SelectionProbs(np.full(ncoords, 1.0 / ncoords))
    if isinstance(p, SelectionProbs):
        sel = p
    else:
        sel = SelectionProbs(np.asarray(p, dtype=float))
    if sel.n != ncoords:
        raise DimensionMismatch(
            f"expected {ncoords} selection probabilities, got {sel.n}"
        )
    return sel
