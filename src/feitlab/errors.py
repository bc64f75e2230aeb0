"""Shared exception types."""


class ConsistencyError(RuntimeError):
    """An internal exactness check failed (non-integral coefficient,
    orthogonality failure, ...).  Always indicates corrupted input data or
    an implementation bug, never a legitimate mathematical outcome."""


class BoundExceeded(ValueError):
    """A computation was requested for a group larger than the configured
    bound for that operation."""


class TableFormatError(ValueError):
    """A serialized character table failed validation.  The message names
    the check that failed."""


class SpecError(ValueError):
    """A group spec string is unknown or malformed: a usage error, reported
    with the form that was expected."""


class UsageError(ValueError):
    """An option, environment setting or argument (a character index chi, a
    divisor n) is out of range or malformed: a usage error, reported with
    the option, variable or argument it came from."""
