"""Exception hierarchy.

Every error raised by this package derives from HybridGibbsError, so callers
can catch the whole family with one clause.  ``positive_int`` is the one
check of an integer argument, library and CLI alike, ``positive_tol`` the
one check of a tolerance, ``as_tuple`` the one of a collection and
``instance_of`` the one of a source, a pair or a profile.  Errors that carry
diagnostic payloads (worst state pair, expected lengths, ...) expose them
as attributes.
"""

import math
import numbers

import numpy as np


class HybridGibbsError(Exception):
    pass


class DimensionMismatch(HybridGibbsError):
    pass


class InvalidDistribution(HybridGibbsError):
    pass


class InvalidKernel(HybridGibbsError):
    pass


class NotReversible(HybridGibbsError):
    """Detailed balance fails; carries the worst-violating pair and defect."""

    def __init__(self, message, pair=None, defect=None):
        super().__init__(message)
        self.pair = pair
        self.defect = defect


class SingularStationary(HybridGibbsError):
    pass


class NoSpectralGap(HybridGibbsError):
    pass


class PreconditionUnmet(HybridGibbsError):
    pass


class ZeroFunction(HybridGibbsError):
    pass


class SpaceTooLarge(HybridGibbsError):
    pass


class NullConditioningEvent(HybridGibbsError):
    pass


class InvalidSpec(HybridGibbsError):
    pass


class InvalidBlockSize(HybridGibbsError):
    pass


class NotTwoBlock(DimensionMismatch):
    """A data-augmentation chain of a joint needs exactly two coordinates."""


class NonPositiveWeight(HybridGibbsError):
    pass


class MissingLevelKernel(HybridGibbsError):
    pass


class DominationViolated(HybridGibbsError):
    """A norm-bound profile fails to dominate the actual kernel norms."""


class ZeroSelectionProb(HybridGibbsError):
    pass


class NonUniformSelection(HybridGibbsError):
    pass


class DegenerateConstants(HybridGibbsError):
    pass


class InvalidStart(HybridGibbsError):
    pass


class TooFewBatches(HybridGibbsError):
    pass


class NotAbsolutelyContinuous(HybridGibbsError):
    pass


class CrossCheckFailure(HybridGibbsError):
    """Two independent computations of the same quantity disagree."""


class ParseError(HybridGibbsError):
    pass


class SchemaError(HybridGibbsError):
    pass


class InvalidArgument(HybridGibbsError, ValueError):
    """An argument value or builtin name that names nothing usable."""


def positive_int(value, name, low=1):
    """``value`` as an int; InvalidArgument unless it is an integer of at
    least ``low``: 1 for a count, 0 for a seed or a number of random trials
    (an integral float counts; 2.5, "2" or True does not)."""
    try:
        k = None if isinstance(value, (bool, np.bool_)) else int(value)
    except (TypeError, ValueError, OverflowError):
        k = None
    if k is None or k != value or k < low:
        rule = "a positive integer" if low else "a positive integer or 0"
        raise InvalidArgument(f"{name} must be {rule}, got {value!r}")
    return k


def as_tuple(value, name):
    """``value``'s items as a tuple; InvalidArgument naming ``name`` unless
    it is iterable, as an int given for a collection is not."""
    try:
        return tuple(value)
    except TypeError:
        raise InvalidArgument(f"{name} must be a collection, got {value!r}") from None


def instance_of(value, types, name):
    """``value`` itself; InvalidArgument naming ``name`` unless it is an
    instance of ``types``, a class or a tuple of classes."""
    if not isinstance(value, types):
        types = types if isinstance(types, tuple) else (types,)
        kinds = " or a ".join(t.__name__ for t in types)
        raise InvalidArgument(f"{name} must be a {kinds}, got {type(value).__name__}")
    return value


def positive_tol(value):
    """``value`` as a float; InvalidArgument unless it is a real number above
    0 and finite (a string, None, a list or NaN is not)."""
    if not (isinstance(value, numbers.Real) and 0.0 < value < math.inf):
        raise InvalidArgument(f"tol must be finite and positive, got {value!r}")
    return float(value)
