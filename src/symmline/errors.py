"""Exception types shared across the library, the work budgets whose
excess raises OracleInfeasibleError, and the agreement rule.

The CLI maps ParseError to exit status 2 and every other SymmlineError
(or ValueError) to exit status 1, printing the class name.  The budgets
live here, below every module that checks them.  _agree is the one
place where two routes to the same answer are compared: it returns the
first answer, or raises InvariantViolationError naming both.
"""

# work budgets, each checked before the work starts and raised as
# OracleInfeasibleError: residues the membership oracle may try, monic
# candidates the census may enumerate, the arity of the symmetric-basis
# kernels (which grow process-global caches) and of parsed expressions,
# the degree of every subexpression of a parsed expression, and the
# term-by-term products its evaluation may make
ORACLE_SEARCH_BOUND = 100_000
CENSUS_BOUND = 1_000_000
ARITY_BOUND = 10
DEGREE_BOUND = 100
TERM_PRODUCT_BOUND = 100_000


class SymmlineError(Exception):
    """Base class for library errors."""


class RingMismatchError(SymmlineError, ValueError):
    """Operands built over different ring specifications."""


class UnsupportedRingError(SymmlineError, ValueError):
    """The requested operation is not defined over this ring kind."""


class NotSymmetricError(SymmlineError, ValueError):
    """decompose() was given a polynomial that is not symmetric."""


class OracleInfeasibleError(SymmlineError, RuntimeError):
    """A search, an enumeration or an input exceeds its configured bound."""


class InvariantViolationError(SymmlineError, RuntimeError):
    """Two routes that must agree disagreed; indicates a library bug."""


def _agree(value, expected, what: str):
    """value, when it equals expected; else InvariantViolationError."""
    if value != expected:
        raise InvariantViolationError(f"{what} disagree: {value} vs {expected}")
    return value


class ParseError(SymmlineError, ValueError):
    """Malformed input text; carries the offending position."""

    def __init__(self, message, position=None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


def _check_arity(n: int, what: str = "arity") -> None:
    if n > ARITY_BOUND:
        raise OracleInfeasibleError(f"{what} {n} exceeds the arity bound {ARITY_BOUND}")
