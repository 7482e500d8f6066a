"""Exception types raised by the circle_cs package.

Every failure mode that callers may want to distinguish gets its own
class; all of them derive from CircleError so that ``except CircleError``
catches any library-level problem without swallowing programming errors.
"""

from __future__ import annotations

__all__ = [
    "CircleError",
    "ConfigError",
    "ConvergenceError",
    "DomainError",
    "ParityError",
    "RangeOverflowError",
    "SingularityError",
    "TruncationError",
    "WindowError",
]


class CircleError(Exception):
    """Base class for all circle_cs errors."""


class DomainError(CircleError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class ConvergenceError(CircleError, ArithmeticError):
    """A series could not reach the requested tolerance within its term cap."""


class SingularityError(CircleError, ArithmeticError):
    """Evaluation was requested too close to a zero of a theta function."""


class WindowError(CircleError, ValueError):
    """A basis index lies outside the truncation window, or two states

    carry incompatible windows or sectors."""


class ParityError(CircleError, ValueError):
    """A basis index has the wrong parity for the requested sector."""


class TruncationError(CircleError, ValueError):
    """The truncation window is too small to hold the requested state."""


class RangeOverflowError(CircleError, OverflowError):
    """A ladder or scaling factor exceeds the double-precision range."""


class ConfigError(CircleError, ValueError):
    """A verification config file is malformed or contains unknown keys."""
