"""Exception types shared across the package.

Every error raised by library code derives from :class:`RainbowError`, so
callers (and the CLI) can distinguish domain failures from programming bugs.
"""


class RainbowError(Exception):
    """Base class for all library errors."""


# --- graph construction / validation ---------------------------------------

class IdOutOfRange(RainbowError):
    pass


class DuplicateEndpointInColourClass(RainbowError):
    pass


class DuplicateEdgeAcrossColours(RainbowError):
    pass


# --- Latin square parsing ----------------------------------------------------

class RaggedRows(RainbowError):
    pass


class RowRepeat(RainbowError):
    pass


class ColumnRepeat(RainbowError):
    pass


class TooManySymbols(RainbowError):
    pass


class NotSquare(RainbowError):
    pass


class MatchingGraphMismatch(RainbowError):
    pass


# --- search budgets ----------------------------------------------------------

class BudgetExceeded(RainbowError):
    pass


class PathBudgetExceeded(BudgetExceeded):
    pass


class RejectionBudgetExceeded(BudgetExceeded):
    pass


# --- solver / machinery preconditions ---------------------------------------

class InfeasibleParameters(RainbowError):
    pass


class EmptyMatching(RainbowError):
    pass


class PathNotRainbow(RainbowError):
    pass


class PreconditionViolated(RainbowError):
    pass


class ExchangeNotApplicable(RainbowError):
    pass


class ContextInvalid(RainbowError):
    pass


class ParameterViolation(RainbowError):
    pass


class LPNumericalFailure(RainbowError):
    pass


class DomainError(RainbowError):
    pass


class NoVerifiedSetFound(RainbowError):
    pass


class SegmentNotFound(RainbowError):
    pass
