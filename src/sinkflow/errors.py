"""Exception hierarchy shared by all sinkflow modules."""


class SinkflowError(Exception):
    """Base class for all library errors."""


class DomainError(SinkflowError):
    """An argument lies outside the domain the operation is defined on."""


class TruncationError(SinkflowError):
    """Too much probability mass falls outside the truncated grid."""


class NonPositiveError(SinkflowError):
    """A density value is zero, negative, or non-finite."""


class GridMismatch(SinkflowError):
    """Two objects that must share a grid do not."""


class NonMonotoneMap(SinkflowError):
    """A map that must be strictly increasing is not."""


class RangeError(SinkflowError):
    """A target grid exceeds the range of a gradient map."""


class NumericOverflow(SinkflowError):
    """Non-finite values entered a numerical kernel."""


class ConvexityLost(SinkflowError):
    """A potential's second derivative dropped below the admissible floor
    (or exceeded the cap) somewhere on the grid."""


class StabilityError(SinkflowError):
    """A time stepper produced an unstable or inconsistent update."""


class ParticleEscape(SinkflowError):
    """A simulated particle left the extended grid domain."""


class EmptyTable(SinkflowError):
    """A plot or report was requested for an empty table."""
