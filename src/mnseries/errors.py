"""Exception types shared across the package."""


class MNSeriesError(Exception):
    """Base class for all library errors."""


class DomainError(MNSeriesError):
    """A coefficient or exponent is malformed for its coefficient domain."""


class ModeMismatchError(MNSeriesError):
    """Two series with incompatible modes or domains were combined."""


class PrecisionLossError(MNSeriesError):
    """A p-adic carry crossed the p^N modulus below the precision frontier.

    Carries the lowest lost digit: its ``index``, its ``coset`` (the
    Fraction gamma of ``gamma + Z``), its ``offset`` within the coset, and
    the ``modulus`` exponent N, the p^N it lies beyond.
    """

    def __init__(self, index, coset, offset: int, modulus: int):
        super().__init__(f"digit at index {index} sits at offset {offset} within its coset "
                         f"{coset} + Z, beyond the p^{modulus} modulus")
        self.index, self.coset, self.offset, self.modulus = index, coset, offset, modulus


class ZeroSeriesError(MNSeriesError):
    """An operation that needs a nonzero series received the zero series."""


class ParseError(MNSeriesError):
    """A series literal failed to parse; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position
