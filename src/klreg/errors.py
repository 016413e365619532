"""Exception classes shared by all klreg modules, one per CLI outcome.

  ParseError       exit 2  unparseable user input
  ValidationError  exit 3  input that parses but that no construction accepts
  ResourceError    exit 4  an enumeration ran out of budget
  InternalError    exit 5  a proved invariant failed: a bug in klreg

KlregError is their common base.  A MemoryError escaping the CLI is
reported with exit code 4, any other exception with exit code 5.
"""

DEFAULT_BUDGET = 1_000_000  # what an enumeration may count before it raises ResourceError


class KlregError(Exception):
    """Base class for all errors raised by klreg."""


class ParseError(KlregError):
    """Unparseable user input."""


class ValidationError(KlregError):
    """Malformed, inconsistent or unsupported input data."""


class ResourceError(KlregError):
    """An enumeration exceeded its budget; `partial` holds what it counted."""

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


class InternalError(KlregError):
    """A postcondition that the code proves failed: a bug, not bad input."""
