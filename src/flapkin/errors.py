"""Error types shared across the toolkit.

Every domain error carries a stable machine-greppable ``code`` so the CLI
can emit single-line diagnostics like ``E_KINEMATICS NOT_ASSEMBLABLE ...``.
"""
from __future__ import annotations


class FlapkinError(Exception):
    """Base class for all domain errors."""

    code = "ERROR"
    family = "E_DOMAIN"

    def __init__(self, message: str = "", code: str | None = None):
        if code is not None:
            self.code = code
        super().__init__(message or self.code)


class MechanismError(FlapkinError):
    family = "E_MECHANISM"


class DisconnectedError(MechanismError):
    code = "DISCONNECTED"


class KinematicsError(FlapkinError):
    family = "E_KINEMATICS"


class NotAssemblableError(KinematicsError):
    code = "NOT_ASSEMBLABLE"


class ConvergenceError(KinematicsError):
    code = "NO_CONVERGENCE"


class SingularJacobianError(KinematicsError):
    code = "SINGULAR_JACOBIAN"


class BranchAmbiguousError(KinematicsError):
    code = "BRANCH_AMBIGUOUS"


class GaitError(FlapkinError):
    family = "E_GAIT"


class DegenerateGeometryError(GaitError):
    code = "DEGENERATE"


class ZeroReachError(GaitError):
    code = "ZERO_REACH"


class NoStrokeReversalError(GaitError):
    code = "NO_STROKE_REVERSAL"


class AeroError(FlapkinError):
    family = "E_AERO"


class PeriodMismatchError(AeroError):
    code = "PERIOD_MISMATCH"


class SynthesisError(FlapkinError):
    family = "E_SYNTHESIS"


class EmptyDesignSpaceError(SynthesisError):
    code = "EMPTY_DESIGN_SPACE"


class BudgetTooSmallError(SynthesisError):
    code = "BUDGET_TOO_SMALL"


class FileFormatError(FlapkinError):
    family = "E_FORMAT"


class ParseError(FileFormatError):
    code = "PARSE_ERROR"


class SchemaError(FileFormatError):
    code = "SCHEMA_ERROR"


class MechanismValidationError(FileFormatError):
    family = "E_VALIDATION"
    code = "VALIDATION_ERROR"


class LargeDeflectionWarning(UserWarning):
    """Hinge deflection left the small-angle regime (|deflection| > pi/2)."""
