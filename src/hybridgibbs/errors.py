"""Exception hierarchy.

Every error raised by this package derives from HybridGibbsError, so callers
can catch the whole family with one clause.  ``positive_int`` is the one
check of an integer argument, library and CLI alike.  Errors that carry
diagnostic payloads (worst state pair, expected lengths, ...) expose them
as attributes.
"""


class HybridGibbsError(Exception):
    pass


class DimensionMismatch(HybridGibbsError):
    pass


class InvalidDistribution(HybridGibbsError):
    pass


class InvalidKernel(HybridGibbsError):
    pass


class NonUniqueStationary(HybridGibbsError):
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


class NotTwoBlock(HybridGibbsError):
    pass


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
    (an integral float counts, 2.5 or "2" does not)."""
    try:
        k = int(value)
    except (TypeError, ValueError, OverflowError):
        k = None
    if k is None or k != value or k < low:
        rule = "a positive integer" if low else "a positive integer or 0"
        raise InvalidArgument(f"{name} must be {rule}, got {value!r}")
    return k
