"""Exception types shared across the package.

Everything raised deliberately by this library derives from
:class:`BlaschkeError`, so callers can catch one base class at the
boundary and let genuine bugs (TypeError and friends) propagate.  The
one exception is an index out of range, which raises IndexError as a
sequence does: ``reconstruct`` outside the expansion's depth.
"""


class BlaschkeError(Exception):
    """Base class for all errors raised by this package."""


class InvalidSeries(BlaschkeError):
    """Coefficient data is malformed (non-finite entries, bad shape)."""


class ZeroSeries(BlaschkeError):
    """An operation that needs a nonzero function received the zero series."""


class DomainError(BlaschkeError):
    """An argument lies outside the closed unit disk or another stated domain."""


class NonFinite(BlaschkeError):
    """Sample data contains NaN or infinity."""


class ConvergenceError(BlaschkeError):
    """An iterative solver exhausted its budget without converging."""


class NotARoot(BlaschkeError):
    """A point claimed as a root fails the residual test."""


class ChainInconsistent(BlaschkeError):
    """A decomposition chain failed one of its internal consistency checks."""


class InsufficientDepth(BlaschkeError):
    """An expansion is too shallow for the requested statistic."""


class CapTooLarge(BlaschkeError):
    """Requested truncation order exceeds what the sample count supports,
    or a series extension needs more terms than the library hands out."""


class KTooSmall(BlaschkeError):
    """Requested sample count cannot represent the series exactly."""


class WeightClassMismatch(BlaschkeError):
    """A verification routine received a weight outside its growth class."""


class BlaschkeConditionViolated(BlaschkeError):
    """A root family fails the numeric summability check for 1 - |alpha_j|."""


class InvalidSpec(BlaschkeError, ValueError):
    """An argument is out of range or a specification is inconsistent;
    also a ValueError."""
