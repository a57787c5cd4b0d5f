"""Exception types shared across the package."""


class StrcatError(Exception):
    """Base class for all computation errors raised by strcat."""


class DimensionBoundExceeded(StrcatError):
    """The irreducible-path basis grew past the requested bound.

    Usually means the input presentation is not finite dimensional, or a
    rule was oriented the wrong way.
    """


class NonTerminating(StrcatError):
    """Rewriting or completion exceeded its iteration cap."""


class UnsupportedRelation(StrcatError):
    """Completion produced a relation with more than two terms."""


class AlgebraMismatch(StrcatError):
    """Two operands live over different algebras."""


class UnknownArrow(StrcatError):
    """A word refers to an arrow that the quiver does not declare."""


class CapTooSmall(StrcatError):
    """Strings of the maximal searched length still exist, so the
    enumeration cannot be certified complete."""


class NotAString(StrcatError):
    """The word violates one of the string conditions."""


class IndexOutOfRange(StrcatError):
    """A named module lies outside the valid series range for the family."""


class ZeroModule(StrcatError):
    """The operation needs a nonzero module."""
