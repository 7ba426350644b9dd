"""Exception types shared across the library.

The CLI maps ParseError to exit status 2 and every other SymmlineError
(or ValueError) to exit status 1, printing the class name.
"""


class SymmlineError(Exception):
    """Base class for library errors."""


class RingMismatchError(SymmlineError, ValueError):
    """Operands built over different ring specifications."""


class UnsupportedRingError(SymmlineError, ValueError):
    """The requested operation is not defined over this ring kind."""


class NotInvertibleError(SymmlineError, ArithmeticError):
    """An inverse was requested but does not exist."""


class NotSymmetricError(SymmlineError, ValueError):
    """decompose() was given a polynomial that is not symmetric."""


class OracleInfeasibleError(SymmlineError, RuntimeError):
    """A search, an enumeration or an input exceeds its configured bound."""


class InvariantViolationError(SymmlineError, RuntimeError):
    """Two routes that must agree disagreed; indicates a library bug."""


class ParseError(SymmlineError, ValueError):
    """Malformed input text; carries the offending position."""

    def __init__(self, message, position=None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
