"""Exception types shared across the package.

The CLI tells three outcomes apart: ``ParseError``, ``ValidationError``
and ``BoundExceeded`` mean the input could not be used (exit 2), and
``CheckFailed`` means a check failed (exit 1).  A failure that carries a
mathematical witness exposes it as an attribute, so callers (and the
CLI) can report exactly which elements broke which law.
"""


class AmpleError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(AmpleError):
    def __init__(self, message, line, column):
        self.line = line
        self.column = column
        super().__init__(f"{message} (at {line}:{column})")


class ValidationError(AmpleError):
    """The input breaks a law: a table, groupoid, collection or basis.

    ``witness`` names the elements at fault where the law has them, such
    as the triple where associativity fails; ``reason`` is the error a
    document parser wrapped.
    """

    def __init__(self, message, witness=None, reason=None):
        self.witness = witness
        self.reason = reason
        super().__init__(message)


class CheckFailed(AmpleError):
    """A check failed: a report asked to raise, or a certified invariant broke.

    These are raised explicitly, never by ``assert``, so they also run
    under ``python -O``.  The CLI maps them to exit code 1.
    """


class BoundExceeded(AmpleError):
    """An enumeration would overrun its configured guard."""
