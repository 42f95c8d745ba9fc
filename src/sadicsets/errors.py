"""Exception types shared across the package.

The CLI maps ``ResourceBudgetError`` to exit code 2 and every other
``SadicError`` to exit code 1.
"""


class SadicError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidDigitError(SadicError):
    """A digit lies outside 0..s-1, or a digit string is malformed."""


class InvalidBlockError(SadicError):
    """A block value is 0, equals the marker digit, or exceeds s-1."""


class InvalidBaseError(SadicError):
    """A cylinder base (or s/u parameter) violates its constraints."""


class RangeError(SadicError):
    """A numeric argument lies outside its admissible interval."""


class InsufficientDigitsError(SadicError):
    """A finite digit string is shorter than the number of digits asked for."""


class NotAMemberError(SadicError):
    """A digit string does not follow the marker-run block pattern.

    ``offset`` is the 1-based position of the first digit at which
    membership becomes impossible.
    """

    def __init__(self, offset: int, reason: str):
        super().__init__(f"not a member at digit {offset}: {reason}")
        self.offset = offset
        self.reason = reason


class WordError(SadicError):
    """A combination word is malformed or not part of the alphabet in use."""


class ExtremaFalsificationError(SadicError):
    """The brute-force audit found a prefix hull outside the claimed extrema."""


class ResourceBudgetError(SadicError):
    """A requested computation exceeds a fixed size budget."""


class ScaleMismatchError(SadicError):
    """Box-counting scales are malformed, or too fine for a double."""
