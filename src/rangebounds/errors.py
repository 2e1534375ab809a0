"""Exception hierarchy.

Validation failures (bad inputs, infeasible constructions) derive from
:class:`ValidationError`; solver failures to converge derive from
:class:`ConvergenceError`.  The CLI maps the former to exit code 1 and the
latter to exit code 2.
"""

from __future__ import annotations

__all__ = [
    "RangeBoundsError",
    "ValidationError",
    "InfeasibleCouplingError",
    "ConvergenceError",
]


class RangeBoundsError(Exception):
    """Base class for errors raised by this package."""


class ValidationError(RangeBoundsError, ValueError):
    """An input or a requested construction is invalid."""


class InfeasibleCouplingError(ValidationError):
    """No zero-diagonal coupling exists for the given marginals."""


class ConvergenceError(RangeBoundsError, RuntimeError):
    """An iterative routine ended at a point that fails its fixed test:
    a gradient norm above 1e-10, or tail masses that admit no coupling.

    Carries the best iterate found so the caller can inspect how close the
    run got.
    """

    def __init__(self, message: str, *, best: object = None) -> None:
        super().__init__(message)
        self.best = best
