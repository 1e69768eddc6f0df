"""Shared exception types."""


class ParseError(ValueError):
    """Malformed graph/cover/list text input."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class CoverInvalid(ValueError):
    """An operation that requires a valid cover received a broken one."""


class CapExceeded(RuntimeError):
    """A resource cap (node budget, transversal space, list size) was hit.

    Deliberately distinct from a negative answer: searches never report
    "uncolorable" on a budget abort.
    """


class InternalInvariantError(RuntimeError):
    """A cross-check that should be unconditionally true failed."""
