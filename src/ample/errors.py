"""Exception types shared across the package.

Every failure that carries a mathematical witness exposes it as an
attribute, so callers (and the CLI) can report exactly which elements
broke which law.
"""


class AmpleError(Exception):
    """Base class for all errors raised by this package."""


class NotAssociative(AmpleError):
    def __init__(self, a, b, c):
        self.witness = (a, b, c)
        super().__init__(f"associativity fails at ({a}, {b}, {c})")


class NoUniqueInverse(AmpleError):
    def __init__(self, element, candidates):
        self.element = element
        self.candidates = tuple(candidates)
        n = len(self.candidates)
        super().__init__(
            f"element {element} has {n} generalized inverse(s): {self.candidates!r}"
        )


class NoZero(AmpleError):
    """No absorbing element present (one is required; see --adjoin-zero)."""


class NotIdempotent(AmpleError):
    def __init__(self, element):
        self.element = element
        super().__init__(f"{element} is not an idempotent")


class BoundExceeded(AmpleError):
    """An enumeration would overrun its configured guard."""


class TightUltraMismatch(AmpleError):
    """Tight characters and ultrafilters disagree on a finite semilattice.

    This cannot happen for a correctly computed spectrum; it is a bug trap.
    """


class OutsideDomain(AmpleError):
    """A partial map was applied outside its domain."""


class BadComposabilityDomain(AmpleError):
    """Composition is declared on the wrong pairs or breaks source/range."""


class BadUnits(AmpleError):
    """Units, or the unit laws, are malformed."""


class BadInverse(AmpleError):
    """The inverse map breaks the groupoid laws."""


class NotClosed(AmpleError):
    def __init__(self, left, right=None):
        self.witness = (left, right)
        if right is None:
            super().__init__(str(left))
        else:
            super().__init__(f"collection not closed at product {left} * {right}")


class CheckFailed(AmpleError):
    """A verification report failed and was asked to raise."""


class NotWellDefined(AmpleError):
    """The germ-to-arrow map is not well defined."""


class NotBijective(AmpleError):
    """A map between groupoids is not a bijection on arrows."""


class NotFunctorial(AmpleError):
    """A map between groupoids does not respect their structure."""


class EmptySpectrum(AmpleError):
    """The tight spectrum is empty (zero semigroup), so no unit cover exists."""


class GroupoidMismatch(AmpleError):
    """Algebra elements over different groupoids cannot be combined."""


class ParseError(AmpleError):
    def __init__(self, message, line, column):
        self.line = line
        self.column = column
        super().__init__(f"{message} (at {line}:{column})")


class ValidationError(AmpleError):
    """A parsed document failed structural validation."""

    def __init__(self, message, reason=None):
        self.reason = reason
        super().__init__(message)
