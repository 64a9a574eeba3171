"""Exception types shared across the package.

Everything raised on purpose derives from LevyInvestError so callers can
catch package errors with a single except clause; the CLI relies on this
to turn any failure into a machine-readable error report.
"""

from __future__ import annotations


class LevyInvestError(Exception):
    """Base class for all errors raised by this package."""


class ConstructionError(LevyInvestError, ValueError):
    """Invalid parameters passed to a model or profit-function constructor.

    Carries the offending parameter's name so the config parser can report
    it by its dotted path.
    """

    def __init__(self, key: str, message: str):
        super().__init__(message)
        self.key = key
        self.message = message


class DomainError(LevyInvestError, ValueError):
    """Evaluation requested outside the mathematical domain of an operation.

    Typical cases: a Laplace exponent argument where the exponential moment
    does not exist, or a supremum-moment argument at or beyond the smallest
    positive root of the discount equation.
    """


class UnsupportedModel(LevyInvestError, ValueError):
    """Operation requires a feature the given model family does not have."""


class BracketFailure(LevyInvestError, RuntimeError):
    """A sign-change bracket could not be established for a root search."""


class MonotonicityViolation(LevyInvestError, RuntimeError):
    """A solved boundary grid failed its positivity/monotonicity check."""


class ConditionViolation(LevyInvestError, RuntimeError):
    """A standing assumption needed by the requested computation fails.

    Raised e.g. when a discounted-integral tail bound cannot be certified
    because a required exponential moment is missing or too large.
    """


class ParseError(LevyInvestError, ValueError):
    """A configuration file could not be parsed."""


class ValidationError(LevyInvestError, ValueError):
    """A parsed configuration has a missing, ill-typed, or out-of-range key.

    Carries the offending key path so the CLI error report can name it.
    """

    def __init__(self, key: str, message: str):
        super().__init__(f"{key}: {message}")
        self.key = key
        self.message = message
