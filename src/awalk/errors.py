"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes: precondition/domain problems exit 2,
resource-budget problems (and MemoryError) exit 3, unmet tolerances exit 4.
"""

import math


class AwalkError(Exception):
    """Base class for package-specific errors."""


class PreconditionError(AwalkError, ValueError):
    """An operation was called with arguments outside its contract."""


class DomainError(PreconditionError):
    """A numeric argument lies outside the mathematical domain."""


class UnsupportedVariantError(PreconditionError):
    """The sequence variant does not support the requested operation."""


class ResourceError(AwalkError, RuntimeError):
    """The computation would exceed the configured memory or size budget."""

    def __init__(self, message, *, required=None, budget=None):
        super().__init__(message)
        self.required = required
        self.budget = budget


class ToleranceError(AwalkError, RuntimeError):
    """Requested accuracy was not reached within the node budget.

    Carries the best value obtained and the achieved error estimate so
    callers can decide whether the partial result is still usable.
    """

    def __init__(self, message, *, best_value=None, achieved_estimate=None, nodes=None):
        super().__init__(message)
        self.best_value = best_value
        self.achieved_estimate = achieved_estimate
        self.nodes = nodes


def require_finite_nonnegative(name: str, value: float) -> None:
    """Raise DomainError unless value is a finite number >= 0 (nan fails too)."""
    if not (value >= 0 and math.isfinite(value)):
        raise DomainError(f"{name} must be finite and >= 0, got {value}")
