"""Exception hierarchy shared by the library and the CLI.

Exit-code mapping used by the CLI: 1 = usage/parse error, 2 = precondition
violation, 3 = internal invariant breach.
"""


class GradusError(Exception):
    exit_code = 2


class ParseError(GradusError):
    """Malformed input text (polynomial grammar, point files)."""

    exit_code = 1

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class PreconditionError(GradusError):
    """An operation was called outside its stated domain."""


class AmbientMismatchError(PreconditionError):
    """Subspace/polynomial operands live in different ambient spaces."""


class CharacteristicError(PreconditionError):
    """The prime-field characteristic is too small for the operation."""


class ZeroPolynomialError(PreconditionError):
    """A zero polynomial where a nonzero one is required."""


class NotSmoothError(PreconditionError):
    """Operation requires a smooth-certified form."""


class DegeneratePairError(PreconditionError):
    """The colon-perp of a pair is not one-dimensional."""

    def __init__(self, message, dim=None):
        super().__init__(message)
        self.dim = dim


class RangeError(PreconditionError):
    """Degree argument outside the validity range of an identity."""


class BudgetExhaustedError(GradusError):
    """A randomized search ran out of trials, or a computation's estimated
    work is above `linalg.WORK_BUDGET` (points of a scan, cells of an
    evaluation map) or
    `jacobian.MACAULAY_CELLS` (cells of a block of Macaulay rows);
    reported, not a crash."""


class InternalInvariantError(GradusError):
    """A library self-check failed; indicates a bug, not bad input."""

    exit_code = 3


def invariant(condition, message):
    """Raise InternalInvariantError unless condition holds."""
    if not condition:
        raise InternalInvariantError(message)


def require_positive(**counts):
    """Raise PreconditionError("<name> must be >= 1") for the first count
    below 1: the one check for trials, bounds and steps."""
    for name, value in counts.items():
        if value < 1:
            raise PreconditionError(f"{name} must be >= 1")
