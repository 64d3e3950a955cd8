"""Rules that manufacture per-conditional approximating kernels.

Each rule builds, for a target conditional distribution pi on a coordinate
slice, a kernel reversible with respect to pi:

  Exact            one-shot independence kernel: Q(z, .) = pi(.)
  Lazy(eps)        eps * I + (1 - eps) * pi(.); operator norm eps
  MetropolisRW(r)  random walk proposing uniformly among the 2r neighbors
                   within index distance r, no wrap-around; out-of-range
                   proposals are rejected (the chain stays put), in-range
                   ones accepted with min(1, pi(x')/pi(x))
  MetropolisIndep  independence Metropolis-Hastings with a fixed proposal
  ExplicitMatrix   user-supplied matrices keyed by (coordinate, complement),
                   validated for reversibility against the conditional

An ApproximatorSpec bundles a default rule with per-coordinate overrides.
"""

from dataclasses import dataclass, field
from numbers import Real

import numpy as np

from .errors import InvalidDistribution, InvalidKernel, InvalidSpec, positive_int
from .space import conditional
from .spectral import ProbVec, _floats, check_reversibility


@dataclass(frozen=True)
class Exact:
    def describe(self):
        return {"rule": "exact"}


@dataclass(frozen=True)
class Lazy:
    epsilon: float

    def __post_init__(self):
        if not (isinstance(self.epsilon, Real) and 0.0 <= self.epsilon <= 1.0):
            raise InvalidSpec(f"lazy epsilon must be a number in [0, 1], got {self.epsilon!r}")

    def describe(self):
        return {"rule": "lazy", "epsilon": float(self.epsilon)}


@dataclass(frozen=True)
class MetropolisRW:
    radius: int = 1

    def __post_init__(self):
        object.__setattr__(self, "radius", positive_int(self.radius, "random-walk radius"))

    def describe(self):
        return {"rule": "metropolis_rw", "radius": self.radius}


@dataclass(frozen=True, eq=False)
class MetropolisIndep:
    """Independence Metropolis-Hastings; proposal is "uniform" or a vector."""

    proposal: object = "uniform"

    def describe(self):
        if isinstance(self.proposal, str):
            return {"rule": "metropolis_indep", "proposal": self.proposal}
        proposal = _floats(self.proposal, InvalidDistribution, "proposal weights")
        return {"rule": "metropolis_indep", "proposal": proposal.tolist()}


@dataclass(frozen=True, eq=False)
class ExplicitMatrix:
    """Per-conditional kernel table keyed by (coordinate, complement tuple)."""

    tables: dict

    def describe(self):
        """The full tables, keyed "i;y1,y2,..." as in config files; a slice
        level key ("level", k) becomes "level;k"."""
        tables = {}
        for (i, y), matrix in sorted(self.tables.items()):
            ys = y if isinstance(y, tuple) else (y,)
            matrix = _floats(matrix, InvalidKernel, "explicit kernel entries")
            tables[f"{i};{','.join(str(v) for v in ys)}"] = matrix.tolist()
        return {"rule": "explicit", "tables": tables}


RULE_TYPES = (Exact, Lazy, MetropolisRW, MetropolisIndep, ExplicitMatrix)


@dataclass(frozen=True, eq=False)
class ApproximatorSpec:
    """Default rule plus per-coordinate overrides.

    On finite spaces the map from a configuration to its conditional's kernel
    is automatically measurable, so no regularity condition is needed beyond
    per-conditional reversibility, which ``make_approximator`` verifies.
    """

    default: object = field(default_factory=Exact)
    overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.overrides, dict):
            raise InvalidSpec(f"overrides must be a dict, got {type(self.overrides).__name__}")
        if not isinstance(self.default, RULE_TYPES):
            raise InvalidSpec(f"unknown approximator rule {self.default!r}")
        for c, rule in self.overrides.items():
            if not isinstance(rule, RULE_TYPES):
                raise InvalidSpec(f"unknown approximator rule {rule!r} for coordinate {c}")

    def rule_for(self, i):
        return self.overrides.get(i, self.default)

    def describe(self):
        return {
            "default": self.default.describe(),
            "overrides": {str(c): r.describe() for c, r in sorted(self.overrides.items())},
        }


EXACT_SPEC = ApproximatorSpec()


def checked_spec(spec):
    """``spec`` itself if it is an ApproximatorSpec; anything else, None or
    a bare rule among them, raises InvalidSpec naming its type."""
    if not isinstance(spec, ApproximatorSpec):
        raise InvalidSpec(f"an approximator spec is required, got {type(spec).__name__}")
    return spec


def kernel_for_target(target, rule, key=None):
    """Matrix of the rule's kernel for a target distribution on a slice: the
    one-target case of ``stacked_kernels``."""
    return np.array(stacked_kernels(_target_weights(target)[None, :], rule, keys=[key])[0])


def _target_weights(target):
    """A target distribution's weights, not renormalized: a ProbVec's, or
    an array-like's as floats."""
    if isinstance(target, ProbVec):
        return target.weights
    return _floats(target, InvalidDistribution, "target weights")


def stacked_kernels(targets, rule, keys=None):
    """The rule's kernels for a stack of targets on slices of one size.

    ``targets`` is (Y, d), one distribution per row; the result is (Y, d, d),
    each matrix equal bit for bit to the rule's kernel built alone.  An
    ExplicitMatrix reads its table under ``keys[y]`` for row y.  Exact's
    kernels, every row its target, are a read-only view of ``targets``.
    """
    targets = np.asarray(targets, float)
    Y, d = targets.shape
    if isinstance(rule, Exact):
        return np.broadcast_to(targets[:, None, :], (Y, d, d))
    if isinstance(rule, Lazy):
        eps = float(rule.epsilon)
        return eps * np.eye(d) + (1.0 - eps) * targets[:, None, :]
    if isinstance(rule, MetropolisRW):
        return _metropolis_rw(targets, rule.radius)
    if isinstance(rule, MetropolisIndep):
        if isinstance(rule.proposal, str):
            if rule.proposal != "uniform":
                raise InvalidSpec(f"unknown proposal {rule.proposal!r}")
            q = np.full(d, 1.0 / d)
        else:
            q = ProbVec(rule.proposal).weights
            if q.size != d:
                raise InvalidSpec("independence proposal has the wrong length")
        return _metropolis(targets, np.broadcast_to(q, (d, d)))
    if isinstance(rule, ExplicitMatrix):
        out = np.empty((Y, d, d))
        for y, key in enumerate(keys):
            if key not in rule.tables:
                raise InvalidSpec(f"no explicit kernel supplied for {key}")
            m = _floats(rule.tables[key], InvalidKernel, "explicit kernel entries")
            if m.shape != (d, d):
                raise InvalidSpec(
                    f"explicit kernel for {key} has shape {m.shape}, expected {(d, d)}"
                )
            out[y] = m
        return out
    raise InvalidSpec(f"unknown approximator rule {rule!r}")


def _acceptance(num, den):
    """min(1, num/den) where den > 0; otherwise 1 if num > 0, else 0."""
    # A subnormal den overflows the ratio to inf, whose min with 1 is right.
    with np.errstate(over="ignore"):
        ratio = np.divide(num, den, out=np.ones_like(num), where=den > 0.0)
    return np.where(den > 0.0, np.minimum(1.0, ratio), (num > 0.0).astype(float))


def _metropolis_rw(pi, radius):
    """Random-walk Metropolis kernels for the rows of ``pi``.  Each step
    from -r to r, r = min(radius, d - 1), is one shifted comparison, and a
    state's holding mass adds up over the steps in that order; every longer
    step falls off the end, and their holding mass is added as one term."""
    Y, d = pi.shape
    Q = np.zeros((Y, d, d))
    stay = np.zeros((Y, d))
    prop = 1 / (2 * radius)  # exact integer division: no radius overflows a float
    r = min(radius, d - 1)
    for step in range(-r, r + 1):
        if step == 0:
            continue
        # States x with x + step in range; the rest propose off the end.
        xs = np.arange(max(0, -step), min(d, d - step))
        held = np.full((Y, d), prop)
        if xs.size:
            acc = _acceptance(pi[:, xs + step], pi[:, xs])
            Q[:, xs, xs + step] = prop * acc
            held[:, xs] = prop * (1.0 - acc)
        stay += held
    stay += (radius - r) / radius
    Q[:, np.arange(d), np.arange(d)] = stay
    return Q


def _metropolis(pi, P):
    """Metropolis-Hastings kernels for the rows of ``pi`` with the proposal
    matrix ``P``, one proposal column at a time, so that each state's
    holding mass adds up over the columns in order."""
    Y, d = pi.shape
    Q = np.zeros((Y, d, d))
    stay = np.zeros((Y, d))
    for y in range(d):
        # Column y: the move from every x to y.
        acc = _acceptance(pi[:, y : y + 1] * P[y][None, :], pi * P[:, y][None, :])
        Q[:, :, y] = P[:, y] * acc
        held = P[:, y] * (1.0 - acc)
        held[:, y] = 0.0
        stay += held
    Q[:, np.arange(d), np.arange(d)] = np.diagonal(P)[None, :] + stay
    return Q


def make_approximator(joint, spec, i, y):
    """Approximating kernel for conditional ``i`` given ``y``, verified reversible.

    Exact rules produce the independence kernel (operator norm 0); whatever
    the rule, the result is paired with the conditional distribution via a
    detailed-balance check.
    """
    target = conditional(joint, i, y)
    rule = checked_spec(spec).rule_for(i)
    Q = kernel_for_target(target, rule, key=(i, tuple(int(v) for v in y)))
    return check_reversibility(Q, target)
