"""Shared exception types.

Admissibility errors mark inputs rejected by a precondition (the CLI maps
them to exit code 2); everything else is an ordinary usage / consistency
error.
"""

from __future__ import annotations


class AdmissibilityError(ValueError):
    """Input rejected by a documented precondition."""


class DimensionMismatchError(ValueError):
    """Matrix shapes do not line up."""


class PairingFloorError(AdmissibilityError):
    """Deformed vacuum pairs with the reference vacuum below the floor."""


class GuardViolationError(AdmissibilityError):
    """Right-hand side has support outside the guarded degree range."""


class ZeroCovectorError(AdmissibilityError):
    """Symbol evaluation requested at the zero covector."""


class OffContactLineError(AdmissibilityError):
    """Evaluation requested away from the contact line."""


class PoleOnContourError(AdmissibilityError):
    """Integrand is singular on (or too near) the quadrature contour."""


class IllConditionedKernelError(AdmissibilityError):
    """Singular values fall in the undecidable gap between rank and kernel."""


class NonIntegerTraceError(AdmissibilityError):
    """Trace-formula value is not within tolerance of an integer."""


class IntegralityViolation(AdmissibilityError):
    """Integer division in an index formula has a nonzero residue."""

    def __init__(self, message: str, residue: int):
        super().__init__(f"{message} (residue {residue})")
        self.residue = residue
