"""Finite slice samplers with exact level-set integration.

A SliceModel is an unnormalized positive density over finitely many points.
The auxiliary variable z ranges over (0, max density); between consecutive
distinct density values the level set G(z) = {y : density(y) > z} is constant,
so the z-integral defining the marginal kernel is a finite sum over level
intervals and the chain can be built exactly, never by Monte Carlo: it is
the data-augmentation chain of (point, level), built by ``gibbs.da_exact``
and ``gibbs.da_hybrid``.

Level k = 1..K covers the interval (v_{k-1}, v_k] where 0 = v_0 < ... < v_K
are the distinct density values; its level set G_k = {y : density(y) > v_{k-1}}
is nested: G_K subset ... subset G_1 = all points.

Hybrid variants replace the uniform redraw on G_k by one step of a per-level
kernel reversible with respect to the uniform distribution on G_k.  Per-level
(rather than per-z) kernels are exactly the ones for which the finite
integration stays exact.
"""

from dataclasses import dataclass, field

import numpy as np

from .approximators import RULE_TYPES, kernel_for_target
from .errors import InvalidKernel, MissingLevelKernel, NonPositiveWeight, SpaceTooLarge
from .space import state_cap
from .spectral import ProbVec, _floats, check_reversibility


@dataclass(frozen=True, eq=False)
class SliceModel:
    """Unnormalized density plus optional per-level kernels.

    ``level_kernels``, when given, holds one entry per level (ordered from the
    lowest level interval up): either an approximator rule applied to the
    uniform distribution on that level set, or an explicit matrix over the
    level set's points.  An ``ExplicitMatrix`` rule is looked up under the key
    ("level", k) for the k-th entry, counted from 0.  Models with more points
    than ``state_cap()`` raise SpaceTooLarge.
    """

    density: np.ndarray
    level_kernels: tuple = None
    levels: np.ndarray = field(init=False)
    level_sets: tuple = field(init=False)

    def __post_init__(self):
        m = np.array(_floats(self.density, NonPositiveWeight, "density"))
        if m.ndim != 1 or m.size == 0:
            raise NonPositiveWeight("density must be a nonempty 1-d vector")
        cap = state_cap()
        if m.size > cap:
            raise SpaceTooLarge(f"{m.size} points exceed the cap of {cap}")
        if not np.all(np.isfinite(m)) or np.any(m <= 0.0):
            raise NonPositiveWeight("density must be strictly positive and finite")
        m.flags.writeable = False
        levels = np.unique(m)
        level_sets = []
        lower = 0.0
        for v in levels:
            level_sets.append(np.flatnonzero(m > lower))
            lower = v
        object.__setattr__(self, "density", m)
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "level_sets", tuple(level_sets))
        if self.level_kernels is not None:
            lk = tuple(
                e if isinstance(e, RULE_TYPES) else _floats(e, InvalidKernel, "level kernel values")
                for e in self.level_kernels
            )
            if len(lk) != levels.size:
                raise MissingLevelKernel(
                    f"expected {levels.size} level kernels, got {len(lk)}"
                )
            object.__setattr__(self, "level_kernels", lk)

    @property
    def n(self):
        return self.density.size

    @property
    def nlevels(self):
        return self.levels.size

    def target(self):
        """The stationary distribution: the density, normalized."""
        return ProbVec(self.density)


def _level_pairs(model):
    """Each level's (k, G_k, pair): its kernel, verified reversible against uniform on G_k.

    The only place a level kernel is built: rules get the key ("level", k),
    and raw matrices must be |G_k| x |G_k|.
    """
    if model.level_kernels is None:
        raise MissingLevelKernel("this slice model has no per-level kernels")
    for k, (members, entry) in enumerate(zip(model.level_sets, model.level_kernels)):
        uniform = ProbVec(np.full(members.size, 1.0))
        if isinstance(entry, RULE_TYPES):
            entry = kernel_for_target(uniform, entry, key=("level", k))
        if entry.shape != (members.size, members.size):
            raise MissingLevelKernel(
                f"level {k + 1} kernel has shape {entry.shape}, expected "
                f"{(members.size, members.size)}"
            )
        yield k, members, check_reversibility(entry, uniform)
