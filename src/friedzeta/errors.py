"""Exception hierarchy, and the line decoder of the input files.

Validation errors map to CLI exit code 1, convergence and continuation
failures to exit code 2.
"""

__all__ = [
    "FriedzetaError",
    "ValidationError",
    "CapacityError",
    "ConvergenceError",
    "NotLoxodromicError",
    "ResonanceAtZeroError",
    "NotAcyclicError",
    "ascii_line",
]


class FriedzetaError(Exception):
    """Base class for package errors."""


class ValidationError(FriedzetaError):
    """Invalid input data (exit code 1)."""


class NotLoxodromicError(ValidationError):
    """Elliptic or parabolic Mobius element where loxodromic is required."""


class NotAcyclicError(ValidationError):
    """Chain complex or character fails the acyclicity precondition."""


class CapacityError(FriedzetaError):
    """Exact integer data exceeds the configured safe width (exit code 2)."""


class ConvergenceError(FriedzetaError):
    """Evaluation requested outside the convergence region (exit code 2)."""


class ResonanceAtZeroError(ConvergenceError):
    """A graded determinant vanishes at 0: the zeta value is undefined there."""


def ascii_line(path, lineno: int, raw: bytes, encoding: str = "ascii") -> str:
    """Line ``lineno`` of the input file ``path``, decoded as ASCII (or as ``encoding``).

    A byte that does not decode raises a ValidationError naming ``path:line``.
    """
    try:
        return raw.decode(encoding)
    except UnicodeDecodeError as exc:
        byte, col = raw[exc.start], exc.start + 1
        what = f"non-{encoding.upper()} byte 0x{byte:02x} at column {col}"
        raise ValidationError(f"{path}:{lineno}: {what}") from None
