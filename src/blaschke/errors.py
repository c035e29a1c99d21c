"""Exception types shared across the package.

Everything raised deliberately by this library derives from
:class:`BlaschkeError`, so callers can catch one base class at the
boundary and let genuine bugs (TypeError and friends) propagate.  The
one exception is an index out of range, which raises IndexError as a
sequence does: ``reconstruct`` outside the expansion's depth.

Every count or real argument is refused with :class:`InvalidSpec` naming
it and its value in one of two forms.  A count, cap, depth or seed is an
integer (3, 3.0 or a numpy integer, not a bool) at least its lower bound:
"cap must be an integer >= 0, got -1".  A real argument is a real number,
not a bool, finite as a float: "exponent must be a finite real number,
got nan".  Other range tests, such as margin < 1, name the value too.
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
