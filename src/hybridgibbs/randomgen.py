"""Seeded generators for random test models.

Used by the randomized sweeps in the test suite and by the "random" demo.
Everything is driven by a numpy Generator (Philox) so sweeps are exactly
reproducible from an integer seed.
"""

import numpy as np

from .approximators import (
    ApproximatorSpec,
    ExplicitMatrix,
    Lazy,
    _metropolis,
    _target_weights,
    kernel_for_target,
)
from .errors import positive_int
from .gibbs import ConditionalTable
from .space import JointDistribution, ProductSpace
from .spectral import ProbVec


def rng_from(seed):
    """The Philox generator of a seed, an integer of at least 0; a Generator is returned as is."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.Generator(np.random.Philox(positive_int(seed, "seed", low=0)))


def random_probvec(seed, n, floor=0.05):
    """Strictly positive weights; ``floor`` keeps conditionals well-behaved."""
    rng = rng_from(seed)
    w = rng.random(n) + floor
    return ProbVec(w)


def random_joint(seed, sizes=None, max_coords=3, max_size=4, floor=0.05):
    """Random strictly positive joint; sizes drawn unless given."""
    rng = rng_from(seed)
    if sizes is None:
        ncoords = int(rng.integers(2, max_coords + 1))
        sizes = tuple(int(rng.integers(2, max_size + 1)) for _ in range(ncoords))
    space = ProductSpace(tuple(int(d) for d in sizes))
    return JointDistribution(space, random_probvec(rng, space.total, floor=floor))


def random_reversible_kernel(seed, target):
    """A kernel reversible w.r.t. ``target``: a random dense proposal run
    through a Metropolis-Hastings acceptance step.  Generally not psd."""
    rng = rng_from(seed)
    pi = _target_weights(target)
    P = rng.random((pi.size, pi.size)) + 0.05
    P /= P.sum(axis=1, keepdims=True)
    return _metropolis(pi[None], P)[0]


def random_explicit_spec(seed, joint, coords=None):
    """Explicit random reversible approximators for every supported conditional."""
    rng = rng_from(seed)
    tables = {(i, y): random_reversible_kernel(rng, t) for i, y, t in _targets(joint, coords)}
    return ApproximatorSpec(default=ExplicitMatrix(tables))


def random_mixed_spec(seed, joint, coords=None, lazy_prob=0.4):
    """Mix of lazy and explicit random reversible approximators.

    Lazy rules are psd; the explicit Metropolized ones generally are not, so
    sweeps built from this cover both branches of the psd tightenings.
    """
    rng = rng_from(seed)
    tables = {}
    for i, y, target in _targets(joint, coords):
        if rng.random() < lazy_prob:
            tables[(i, y)] = kernel_for_target(target, Lazy(float(rng.uniform(0.0, 0.9))))
        else:
            tables[(i, y)] = random_reversible_kernel(rng, target)
    return ApproximatorSpec(default=ExplicitMatrix(tables))


def _targets(joint, coords):
    """(i, y, target) for each supported conditional of each coordinate i
    in ``coords`` (all by default), read from the coordinate's table."""
    for i in range(joint.space.ncoords) if coords is None else coords:
        table = ConditionalTable(joint, i)
        yield from ((i, y, t) for y, t in zip(table.configs, table.targets))


def random_lazy_spec(seed, joint, eps_range=(0.0, 0.9)):
    """A single Lazy rule with a random mixing weight (always psd)."""
    rng = rng_from(seed)
    return ApproximatorSpec(default=Lazy(float(rng.uniform(*eps_range))))


def random_slice_model(seed, max_points=6, lazy_prob=0.5, with_kernels=True):
    """Random finite slice model; repeated density values exercise level ties."""
    from .slicemodel import SliceModel

    rng = rng_from(seed)
    n = int(rng.integers(2, max_points + 1))
    base = rng.integers(1, 5, size=n).astype(float)  # ties are likely
    base += rng.random(n) * (rng.random() < 0.5)  # sometimes break them
    if not with_kernels:
        return SliceModel(density=base)
    model = SliceModel(density=base)
    kernels = []
    for members in model.level_sets:
        if rng.random() < lazy_prob:
            kernels.append(Lazy(float(rng.uniform(0.0, 0.9))))
        else:
            uniform = ProbVec(np.full(members.size, 1.0))
            kernels.append(random_reversible_kernel(rng, uniform))
    return SliceModel(density=base, level_kernels=tuple(kernels))
