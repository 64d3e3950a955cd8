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
    as_tuple,
    instance_of,
    positive_int,
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
        sizes = as_tuple(self.sizes, "sizes")
        sizes = tuple(positive_int(d, "coordinate size", low=0) for d in sizes)
        if not sizes or any(d < 1 for d in sizes):
            raise DimensionMismatch("coordinate sizes must be positive integers")
        total = math.prod(sizes)
        cap = state_cap()
        if total > cap:
            raise SpaceTooLarge(f"{total} states exceed the cap of {cap}")
        strides = tuple(math.prod(sizes[:i]) for i in range(len(sizes)))
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "strides", strides)
        object.__setattr__(self, "total", total)

    @property
    def ncoords(self):
        return len(self.sizes)

    def encode(self, config):
        return self._offset(range(self.ncoords), config)

    def _offset(self, coords, values):
        """The index offset of the coordinates ``coords`` at ``values``: one
        integer in range per coordinate, else DimensionMismatch, or
        InvalidArgument for a value that is not an integer."""
        values = as_tuple(values, "coordinate values")
        if len(values) != len(coords):
            raise DimensionMismatch(f"expected {len(coords)} coordinate values, got {len(values)}")
        offset = 0
        for c, v in zip(coords, values):
            v = positive_int(v, "coordinate value", low=0)
            if v >= self.sizes[c]:
                raise DimensionMismatch(f"coordinate value {v} out of range [0, {self.sizes[c]})")
            offset += v * self.strides[c]
        return offset

    def decode(self, index):
        index = positive_int(index, "state index", low=0)
        if index >= self.total:
            raise DimensionMismatch(f"state index {index} out of range [0, {self.total})")
        return tuple(index // s % d for d, s in zip(self.sizes, self.strides))

    def complement(self, coords):
        return tuple(c for c in range(self.ncoords) if c not in set(coords))

    def subspace_indices(self, coords, fixed):
        """Flat indices of the slice where the complement of ``coords`` equals
        ``fixed``, enumerated with the first listed coordinate fastest."""
        coords = tuple(coords)
        base = self._offset(self.complement(coords), fixed)
        acc = np.zeros(1, dtype=np.int64)
        for c in coords:
            offsets = np.arange(self.sizes[c], dtype=np.int64) * self.strides[c]
            acc = np.add.outer(offsets, acc).ravel()
        return base + acc

    def complement_configs(self, coords):
        """All configurations of the complement coordinates, first one fastest."""
        sizes = [self.sizes[c] for c in self.complement(coords)]
        strides = [math.prod(sizes[:i]) for i in range(len(sizes))]
        for idx in range(math.prod(sizes)):
            yield tuple(idx // s % d for d, s in zip(sizes, strides))


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
    return JointDistribution(ProductSpace(sizes), ProbVec(weights))


def product_joint(factors):
    """Joint of independent coordinates from per-coordinate weight vectors."""
    factors = [ProbVec(f) for f in as_tuple(factors, "factors")]
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
    coords = _check_coords(instance_of(joint, JointDistribution, "joint").space, coords)
    idx = joint.space.subspace_indices(coords, y)
    slice_w = joint.weights[idx]
    if slice_w.sum() <= 0.0:
        raise NullConditioningEvent(
            f"conditioning event {tuple(y)} for coordinates {coords} has zero mass"
        )
    return ProbVec(slice_w)


def conditional_joint(joint, coords, y):
    """The conditional of a coordinate block, as a joint over the sub-space."""
    coords = _check_coords(instance_of(joint, JointDistribution, "joint").space, coords)
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
    keep = _check_coords(instance_of(joint, JointDistribution, "joint").space, keep)
    W = joint.weights.reshape(joint.space.sizes, order="F")
    return ProbVec(W.sum(axis=joint.space.complement(keep)).ravel(order="F"))


def _check_coords(space, coords):
    coords = as_tuple(coords, "coordinates")
    coords = tuple(sorted(positive_int(c, "coordinate", low=0) for c in coords))
    if not coords:
        raise DimensionMismatch("coordinate set must be nonempty")
    if len(set(coords)) != len(coords):
        raise DimensionMismatch("coordinate set has duplicates")
    if coords[-1] >= space.ncoords:
        raise DimensionMismatch(f"coordinates {coords} out of range")
    return coords


def selection_probs(p, ncoords):
    """``p`` (or None for uniform) as a ProbVec over ``ncoords`` coordinates."""
    sel = ProbVec(np.full(ncoords, 1.0 / ncoords) if p is None else p)
    if sel.n != ncoords:
        raise DimensionMismatch(
            f"expected {ncoords} selection probabilities, got {sel.n}"
        )
    return sel
