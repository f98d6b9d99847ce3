"""Exception hierarchy shared by all fracopt modules."""

from __future__ import annotations


class FracoptError(Exception):
    """Base class for every error raised by this package."""


class DomainError(FracoptError):
    """A point lies outside the domain of the extended ratio objective."""


class InvalidConfigError(FracoptError):
    """Solver configuration violates its validity constraints."""


class InvalidProblemError(FracoptError):
    """Problem data fails a construction-time check (shape, symmetry, PSD, box)."""


class LineSearchError(FracoptError):
    """Backtracking exhausted its budget without an acceptable step."""


class DegenerateInputError(FracoptError):
    """An input is degenerate for the requested operation (zero vector, empty data)."""


class ConvergenceError(FracoptError):
    """An iterative estimator failed to converge within its iteration cap."""


class InsufficientDataError(FracoptError):
    """Not enough usable data to compute the requested statistic."""


class NumericsError(FracoptError):
    """A numeric contract was violated (NaN from a callback)."""


class ParseError(FracoptError):
    """A data file could not be parsed; the message names the offending line."""


class DimensionMismatchError(InvalidProblemError):
    """Problem pieces have inconsistent shapes: an invalid problem, with its own CLI exit code."""
