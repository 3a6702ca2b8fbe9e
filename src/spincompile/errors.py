"""Exception types raised across the package."""


class SpinCompileError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(SpinCompileError):
    """Operands have incompatible shapes."""


class AxisViolation(SpinCompileError):
    """A field component is nonzero on an axis the model does not control."""


class ParseError(SpinCompileError):
    """Malformed text input; carries a row/column location in the message."""


class ShapeError(SpinCompileError):
    """Tabular input with inconsistent or empty rows."""


class BadPlacement(SpinCompileError):
    """Gate placement positions are invalid for the circuit width."""


class OutOfRange(SpinCompileError):
    """Requested index or size outside the supported range."""


class UnknownGate(SpinCompileError):
    """A placement kind or instruction-set name the compiler does not know."""


class MissingRealization(SpinCompileError):
    """Circuit error estimate requested but a gate has no realized schedule."""


class NonUnitaryTarget(SpinCompileError):
    """Synthesis target fails the unitarity check."""


class BudgetUnreachable(SpinCompileError):
    """No grid point reached the requested error budget.

    Carries the per-point reports in ``reports`` for inspection.
    """

    def __init__(self, message, reports=None):
        super().__init__(message)
        self.reports = reports or []


class Degenerate(SpinCompileError):
    """Too few usable points for a fit."""


class ConfigError(SpinCompileError):
    """Bad run-configuration file; message carries the line number."""
