"""Shared exception types."""


class TriageError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(TriageError):
    """Raised when an input file cannot be parsed."""

    def __init__(self, message, line_no=None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


class ValidationError(TriageError):
    """Raised when parsed data violates a contract."""
