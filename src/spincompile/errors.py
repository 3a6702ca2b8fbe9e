"""Exception types raised across the package."""


class SpinCompileError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(SpinCompileError):
    """Operands have incompatible shapes."""


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


class NonUnitaryTarget(SpinCompileError):
    """Synthesis target fails the unitarity check."""


class Degenerate(SpinCompileError):
    """Too few usable points for a fit."""


class ConfigError(SpinCompileError):
    """Bad run-configuration file; message carries the line number."""
