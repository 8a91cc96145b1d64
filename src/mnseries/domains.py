"""Coefficient domains: the three concrete valued digit rings.

Every series in this package draws its coefficients from one of three
domains, each equipped with a base valuation (or a one-parameter family of
base valuations):

* :class:`PerfectPoly` -- polynomials over F_p in fractional powers of x
  (characteristic p, e.g. a perfection ``F_p[x^(1/p^oo)]`` or a Puiseux
  coefficient ring).  The base valuation is x-adic: the smallest exponent.
* :class:`PadicDigits` -- integers modulo p^N standing in for p-adic
  integers at working precision N.  The family of base valuations is
  ``s * ord_p(a)``; on a digit not divisible by p it is 0, independent
  of s.
* :class:`MixedPoly` -- polynomials in fractional powers of x with integer
  coefficients modulo p^N (mixed characteristic, e.g. a truncated model of
  ``Z_p[x^(1/p^oo)]``).  The family takes ``min_e (s * ord_p(c_e) + e)``
  over monomials; on a reduced digit it collapses to the x-adic valuation
  of the mod-p reduction, independent of s.

Coefficients are plain ``int`` for :class:`PadicDigits` and immutable
:class:`XPoly` values for the polynomial domains.  All domain values and
operations are immutable and pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Iterable, Tuple, Union

from .errors import DomainError
from .values import INF, Value, as_exponent

__all__ = [
    "XPoly",
    "PerfectPoly",
    "PadicDigits",
    "MixedPoly",
    "CoefficientDomain",
    "ordp",
]


def ordp(n: int, p: int) -> int:
    """p-adic order of a nonzero integer."""
    if n == 0:
        raise ValueError("ordp of zero is infinite")
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


@dataclass(frozen=True, slots=True)
class XPoly:
    """Finite sum of monomials ``c * x^e`` with rational exponents.

    Stored as a tuple of (exponent, coefficient) pairs sorted by exponent,
    with all coefficients nonzero.  Construct through the owning domain,
    which knows the coefficient modulus and exponent lattice.
    """

    monomials: Tuple[Tuple[Fraction, int], ...]

    @property
    def is_zero(self) -> bool:
        return not self.monomials

    def __bool__(self) -> bool:
        return bool(self.monomials)

    def coefficient(self, e: Fraction) -> int:
        for exp, c in self.monomials:
            if exp == e:
                return c
        return 0


def _check_prime(p: int) -> None:
    """Reject a non-prime p: ``ord_p`` is a valuation only for a prime."""
    if p < 2 or any(p % d == 0 for d in range(2, isqrt(p) + 1)):
        raise DomainError(f"p must be a prime, got {p}")


def _p_power_denominator(den: int, p: int) -> bool:
    while den % p == 0:
        den //= p
    return den == 1


class _PolyDomain:
    """Shared machinery for the two polynomial coefficient domains."""

    p: int
    denominators: str  # 'p-power' | 'any'

    @property
    def modulus(self) -> int:
        raise NotImplementedError

    def _check_exponent(self, e: Fraction) -> Fraction:
        e = as_exponent(e)
        if self.denominators == "p-power" and not _p_power_denominator(e.denominator, self.p):
            raise DomainError(
                f"exponent {e} has denominator {e.denominator}, not a power of p={self.p}"
            )
        return e

    def poly(self, terms: Iterable[Tuple[Fraction, int]]) -> XPoly:
        """Build a coefficient from (exponent, integer) pairs, reducing mod the modulus."""
        acc: dict = {}
        for e, c in terms:
            e = self._check_exponent(Fraction(e))
            acc[e] = (acc.get(e, 0) + int(c)) % self.modulus
        return XPoly(tuple(sorted((e, c) for e, c in acc.items() if c)))

    def zero(self) -> XPoly:
        return XPoly(())

    def one(self) -> XPoly:
        return self.poly([(Fraction(0), 1)])

    def from_int(self, n: int) -> XPoly:
        return self.poly([(Fraction(0), n)])

    def x_power(self, e, c: int = 1) -> XPoly:
        return self.poly([(Fraction(e), c)])

    def is_zero(self, a: XPoly) -> bool:
        return a.is_zero

    def add(self, a: XPoly, b: XPoly) -> XPoly:
        return self.poly(list(a.monomials) + list(b.monomials))

    def mul(self, a: XPoly, b: XPoly) -> XPoly:
        return self.poly(
            [(ea + eb, ca * cb) for ea, ca in a.monomials for eb, cb in b.monomials]
        )

    def validate(self, a) -> XPoly:
        if not isinstance(a, XPoly):
            raise DomainError(f"expected an XPoly coefficient, got {type(a).__name__}")
        for e, c in a.monomials:
            self._check_exponent(e)
            if not (0 < c < self.modulus):
                raise DomainError(f"monomial coefficient {c} outside [1, {self.modulus - 1}]")
        return a

    def coerce(self, a) -> XPoly:
        """Accept any integer-coefficient representative and reduce it."""
        if isinstance(a, int) and not isinstance(a, bool):
            return self.from_int(a)
        if isinstance(a, XPoly):
            return self.poly(a.monomials)
        raise DomainError(f"cannot coerce {type(a).__name__} into {self.kind} coefficients")


@dataclass(frozen=True, slots=True)
class PerfectPoly(_PolyDomain):
    """F_p-polynomials in fractional powers of x; x-adic base valuation."""

    p: int
    denominators: str = "any"

    def __post_init__(self):
        _check_prime(self.p)
        if self.denominators not in ("p-power", "any"):
            raise DomainError(f"unknown denominator policy {self.denominators!r}")

    @property
    def modulus(self) -> int:
        return self.p

    @property
    def kind(self) -> str:
        return "perfect"

    def coeff_valuation(self, a: XPoly) -> Value:
        """Minimum exponent of a nonzero monomial; +oo for the zero coefficient."""
        self.validate(a)
        if a.is_zero:
            return INF
        return a.monomials[0][0]

    def base_valuation_at(self, a: XPoly, s) -> Value:
        # characteristic p: the family is constant in s
        return self.coeff_valuation(a)

    def is_canonical_digit(self, a: XPoly) -> bool:
        # p annihilates everything here, so "p does not divide a" means "a != 0"
        return not self.validate(a).is_zero

    def is_reduced_digit(self, a: XPoly) -> bool:
        return self.is_canonical_digit(a)

    @property
    def residue_domain(self) -> "PerfectPoly":
        return self

    def reduce_mod_p(self, a: XPoly) -> XPoly:
        return self.validate(a)


@dataclass(frozen=True, slots=True)
class PadicDigits:
    """Integers modulo p^N as working-precision p-adic digits."""

    p: int
    N: int = 32

    def __post_init__(self):
        _check_prime(self.p)
        if self.N < 1:
            raise DomainError(f"precision N must be positive, got {self.N}")

    @property
    def modulus(self) -> int:
        return self.p**self.N

    @property
    def kind(self) -> str:
        return "padic"

    def zero(self) -> int:
        return 0

    def one(self) -> int:
        return 1

    def from_int(self, n: int) -> int:
        return int(n) % self.modulus

    def is_zero(self, a: int) -> bool:
        return a == 0

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.modulus

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.modulus

    def validate(self, a) -> int:
        if not isinstance(a, int) or isinstance(a, bool):
            raise DomainError(f"expected an integer digit, got {type(a).__name__}")
        if not (0 <= a < self.modulus):
            raise DomainError(f"digit {a} outside [0, {self.modulus - 1}]")
        return a

    def coerce(self, a) -> int:
        """Accept any integer representative and reduce it mod p^N."""
        if not isinstance(a, int) or isinstance(a, bool):
            raise DomainError(f"cannot coerce {type(a).__name__} into p-adic digits")
        return a % self.modulus

    def coeff_valuation(self, a: int) -> Value:
        """0 on digits not divisible by p; +oo when the mod-p reduction vanishes."""
        self.validate(a)
        if a % self.p != 0:
            return Fraction(0)
        return INF

    def base_valuation_at(self, a: int, s) -> Value:
        self.validate(a)
        if a == 0:
            return INF
        return Fraction(s) * ordp(a, self.p)

    def is_canonical_digit(self, a: int) -> bool:
        self.validate(a)
        return a != 0 and a % self.p != 0

    def is_reduced_digit(self, a: int) -> bool:
        """Digit of the unique base-p expansion: in [1, p-1]."""
        self.validate(a)
        return 0 < a < self.p

    @property
    def residue_domain(self) -> PerfectPoly:
        return PerfectPoly(self.p)

    def reduce_mod_p(self, a: int) -> XPoly:
        self.validate(a)
        return self.residue_domain.from_int(a % self.p)


@dataclass(frozen=True, slots=True)
class MixedPoly(_PolyDomain):
    """Polynomials in fractional powers of x with coefficients modulo p^N."""

    p: int
    N: int = 32
    denominators: str = "any"

    def __post_init__(self):
        _check_prime(self.p)
        if self.N < 1:
            raise DomainError(f"precision N must be positive, got {self.N}")
        if self.denominators not in ("p-power", "any"):
            raise DomainError(f"unknown denominator policy {self.denominators!r}")

    @property
    def modulus(self) -> int:
        return self.p**self.N

    @property
    def kind(self) -> str:
        return "mixed"

    def coeff_valuation(self, a: XPoly) -> Value:
        """x-adic valuation of the mod-p reduction; +oo if that reduction is zero."""
        self.validate(a)
        for e, c in a.monomials:
            if c % self.p != 0:
                return e
        return INF

    def base_valuation_at(self, a: XPoly, s) -> Value:
        """min over monomials of s * ord_p(c_e) + e."""
        self.validate(a)
        s = Fraction(s)
        best: Value = INF
        for e, c in a.monomials:
            v = s * ordp(c, self.p) + e
            if v < best:
                best = v
        return best

    def is_canonical_digit(self, a: XPoly) -> bool:
        """True when p does not divide the coefficient (some monomial survives mod p)."""
        self.validate(a)
        return any(c % self.p != 0 for _, c in a.monomials)

    def is_reduced_digit(self, a: XPoly) -> bool:
        """Strict digit of the base-p expansion: every monomial coefficient in [1, p-1]."""
        self.validate(a)
        return bool(a.monomials) and all(0 < c < self.p for _, c in a.monomials)

    @property
    def residue_domain(self) -> PerfectPoly:
        return PerfectPoly(self.p, self.denominators)

    def reduce_mod_p(self, a: XPoly) -> XPoly:
        self.validate(a)
        return self.residue_domain.poly([(e, c % self.p) for e, c in a.monomials])


CoefficientDomain = Union[PerfectPoly, PadicDigits, MixedPoly]
