"""Exception types shared across the package."""

__all__ = ["HdteError", "DataError", "NumericalError"]


class HdteError(Exception):
    """Base class for all package-specific errors."""


class DataError(HdteError):
    """Invalid or inconsistent input data (schema, shapes, values)."""


class NumericalError(HdteError):
    """A computation failed numerically (singular matrix, non-finite values)."""
