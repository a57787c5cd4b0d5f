"""Exception types shared across the package."""


class StrcatError(Exception):
    """Base class for all computation errors raised by strcat."""


class BadPrime(StrcatError, ValueError):
    """The field size is composite or above ``quiver_core.MAX_PRIME``; a
    ValueError too, since that is bad input, not a failed computation."""


class BadParameter(StrcatError, ValueError):
    """A built-in family's ``m`` is below its least value or gives an
    algebra above ``quiver_core.MAX_DIM``, or an algebra spec's quiver,
    rules, prime or ``dim_bound`` are malformed; bad input like BadPrime."""


class DimensionBoundExceeded(StrcatError):
    """The irreducible-path basis grew past the requested bound.

    Usually means the input presentation is not finite dimensional, or a
    rule was oriented the wrong way.
    """


class NonTerminating(StrcatError):
    """Rewriting or completion exceeded its iteration cap."""


class AlgebraMismatch(StrcatError):
    """Two operands live over different algebras."""


class UnknownArrow(StrcatError):
    """A word refers to an arrow that the quiver does not declare."""


class RepresentationInfinite(StrcatError):
    """Infinitely many strings: the string named in the message repeats its
    first letters, and the stretch before the repeat pumps."""


class NotAString(StrcatError):
    """The word violates one of the string conditions."""


class IndexOutOfRange(StrcatError):
    """A named module lies outside the valid series range for the family."""


class ZeroModule(StrcatError):
    """The operation needs a nonzero module."""
