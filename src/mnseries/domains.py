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

The valuations, digit predicates and the reduction mod p have one
implementation, the mixed-characteristic one above: F_p is Z/p^1, so
:class:`PerfectPoly` is the case N = 1, and a p-adic digit ``a`` is the
single monomial ``a * x^0``.  Each domain only says how to read its
coefficients as (x-exponent, integer) monomials.

Coefficients are plain ``int`` for :class:`PadicDigits` and immutable
:class:`XPoly` values for the polynomial domains.  All domain values and
operations are immutable and pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Iterable, Optional, Tuple, Union

from .errors import DomainError
from .values import INF, Value, as_exponent, as_gauss_param

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


# Miller-Rabin on the primes up to 37 decides primality exactly below the
# least strong pseudoprime to all twelve bases (Sorenson and Webster, 2015)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_BOUND = 318_665_857_834_031_151_167_461


def _check_prime(p: int) -> None:
    """Reject a non-prime p: ``ord_p`` is a valuation only for a prime.  A p
    at or past ``_MR_BOUND``, where the test stops being exact, is rejected too."""
    if p >= _MR_BOUND:
        raise DomainError(f"p must be below {_MR_BOUND}, where primality is decided exactly, got {p}")
    if not _is_prime(p):
        raise DomainError(f"p must be a prime, got {p}")


def _is_prime(n: int) -> bool:
    """Miller-Rabin on every base of ``_MR_BASES``, exact for n < ``_MR_BOUND``."""
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^s with d odd
    d = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1:
            continue
        for _ in range(s):  # a^(d 2^j) for j < s must meet -1
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


def _p_power_denominator(den: int, p: int) -> bool:
    """True when ``den >= 1`` is a power of the prime p.

    Such a power p^k has k < bit_length(den), so den is one exactly when it
    divides p^bit_length(den); for p = 2 it is the single-bit test.
    """
    if p == 2:
        return den & (den - 1) == 0
    return pow(p, den.bit_length(), den) == 0


def _integer(c) -> int:
    """An int coefficient, unreduced; a bool or a float is not one."""
    if not isinstance(c, int) or isinstance(c, bool):
        raise DomainError(f"expected an integer coefficient, got {c!r}")
    return c


_X0 = Fraction(0)  # the x-exponent of a p-adic digit


class _Domain:
    """What the three domains share: coefficients modulo ``p^N``, read
    through :meth:`monomials` as (x-exponent, integer) pairs.

    The parameter checks (p and N are ints, p is prime, N >= 1), the
    modulus and the six valuation, digit and reduction methods are written
    once here, with the mixed-characteristic formulas.  F_p is Z/p^1, so
    :class:`PerfectPoly` is the case N = 1, and a p-adic digit is the x^0
    monomial.  Every public method checks its coefficients and its Gauss
    parameter, then calls a private kernel (``_coeff_valuation``,
    ``_valuation_at``, ``_add``, ``_mul``) that trusts a domain element.
    The exponent lattice is closed under addition, so a sum or product of
    checked elements is one too: the library's valuations and pair products
    call the kernels on the coefficients it built.  :meth:`monomials` only
    reads.
    """

    __slots__ = ()
    p: int
    N: int
    denominators: str  # 'p-power' | 'any'

    def __post_init__(self):
        for name in ("p", "N"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise DomainError(f"{name} must be an int, got {value!r}")
        _check_prime(self.p)
        if self.N < 1:
            raise DomainError(f"precision N must be positive, got {self.N}")
        if self.denominators not in ("p-power", "any"):
            raise DomainError(f"unknown denominator policy {self.denominators!r}")

    @property
    def modulus(self) -> int:
        """p^N, computed on first read: not at construction, where N may be
        huge, and only for a value that can reach it (:meth:`_reduce`)."""
        if self._modulus is None:
            object.__setattr__(self, "_modulus", self.p**self.N)
        return self._modulus

    def _reduce(self, c: int) -> int:
        """c mod p^N, building p^N only when c can reach it: ``0 <= c <
        2^(N floor(log2 p)) <= p^N`` already holds for a short c."""
        modulus = self._modulus
        if modulus is None:
            if c >= 0 and c.bit_length() <= self.N * (self.p.bit_length() - 1):
                return c
            modulus = self.modulus
        return c % modulus

    def coeff_valuation(self, a) -> Value:
        """x-adic valuation of the mod-p reduction; +oo if that reduction is zero."""
        return self._coeff_valuation(self.validate(a))

    def _coeff_valuation(self, a) -> Value:
        for e, c in self.monomials(a):
            if c % self.p:
                return e
        return INF

    def base_valuation_at(self, a, s) -> Value:
        """min over monomials of s * ord_p(c_e) + e."""
        return self._valuation_at(self.validate(a), as_gauss_param(s))

    def _valuation_at(self, a, s: Fraction) -> Value:
        p = self.p
        best = INF
        for e, c in self.monomials(a):  # ascending e
            if c % p:  # no later monomial, at e' > e, can go below e
                return e if best is INF or e < best else best
            v = s * ordp(c, p)
            v = v + e if e else v  # a p-adic digit sits at e = 0
            best = v if best is INF or v < best else best
        return best

    def add(self, a, b):
        return self._add(self.validate(a), self.validate(b))

    def mul(self, a, b):
        return self._mul(self.validate(a), self.validate(b))

    def is_canonical_digit(self, a) -> bool:
        """True when p does not divide the coefficient (some monomial survives mod p)."""
        self.validate(a)
        return any(c % self.p for _, c in self.monomials(a))

    def is_reduced_digit(self, a) -> bool:
        """Strict digit of the base-p expansion: every monomial coefficient in [1, p-1]."""
        self.validate(a)
        monos = self.monomials(a)
        return bool(monos) and all(0 < c < self.p for _, c in monos)

    @property
    def residue_domain(self) -> "PerfectPoly":
        return _residue_domain(self.p, self.denominators)

    def reduce_mod_p(self, a) -> XPoly:
        """The image in the residue domain, whose modulus is p."""
        self.validate(a)
        return self.residue_domain.poly(self.monomials(a))


class _PolyDomain(_Domain):
    """Shared machinery for the two polynomial coefficient domains."""

    __slots__ = ()

    def monomials(self, a: XPoly) -> Tuple[Tuple[Fraction, int], ...]:
        return a.monomials

    def _check_exponent(self, e: Fraction) -> Fraction:
        e = as_exponent(e)
        if self.denominators == "p-power" and not _p_power_denominator(e.denominator, self.p):
            raise DomainError(
                f"exponent {e} has denominator {e.denominator}, not a power of p={self.p}"
            )
        return e

    def poly(self, terms: Iterable[Tuple[Fraction, int]]) -> XPoly:
        """Build a coefficient from (exponent, integer) pairs, reducing mod the modulus.

        One pass checks each pair in order, the lattice once per distinct
        denominator, and sums on the integer key (numerator, denominator); the
        output sorts on numerators over the lcm and keeps the checked exponents.
        """
        acc: dict = {}  # (numerator, denominator) -> [exponent, unreduced sum]
        dens: set = set()  # denominators already on the lattice
        for e, c in terms:
            e = as_exponent(e)
            if e.denominator not in dens:
                dens.add(self._check_exponent(e).denominator)
            acc.setdefault((e.numerator, e.denominator), [e, 0])[1] += _integer(c)
        den = lcm(*dens)
        out = sorted((n * (den // d), e, self._reduce(c)) for (n, d), (e, c) in acc.items())
        return XPoly(tuple((e, c) for _, e, c in out if c))

    def zero(self) -> XPoly:
        return XPoly(())

    def one(self) -> XPoly:
        return self.poly([(Fraction(0), 1)])

    def from_int(self, n: int) -> XPoly:
        return self.poly([(Fraction(0), n)])

    def x_power(self, e, c: int = 1) -> XPoly:
        """The monomial ``c * x^e``: :meth:`poly` of the one term, with its checks."""
        return self.poly([(e, c)])

    def _p_power_monomial(self, m: int, k: int) -> XPoly:
        """The monomial ``x^(m/p^k)`` for ints m >= 0 and k >= 0, unchecked: a
        p-power denominator lies on every lattice, and 1 is a unit mod p^N."""
        return XPoly(((Fraction(m, self.p**k), 1),))

    def is_zero(self, a: XPoly) -> bool:
        return a.is_zero

    def _add(self, a: XPoly, b: XPoly) -> XPoly:
        """Sum of two elements: their exponents are already on the lattice."""
        if not (a.monomials and b.monomials):
            return a if a.monomials else b
        acc = dict(a.monomials)
        for e, c in b.monomials:
            acc[e] = self._reduce(acc.get(e, 0) + c)
        return XPoly(tuple(sorted(m for m in acc.items() if m[1])))

    def _mul(self, a: XPoly, b: XPoly) -> XPoly:
        """Product of two elements on integer numerators over one common
        denominator, with one Fraction per output monomial.  The lattice is
        closed under addition, so no product exponent needs a check."""
        if not (a.monomials and b.monomials):
            return XPoly(())
        den = lcm(*(e.denominator for e, _ in a.monomials + b.monomials))
        right = [(e.numerator * (den // e.denominator), c) for e, c in b.monomials]
        acc: dict = {}
        for e, ca in a.monomials:
            na = e.numerator * (den // e.denominator)
            for nb, cb in right:
                acc[na + nb] = acc.get(na + nb, 0) + ca * cb
        out = []
        for n, c in sorted(acc.items()):
            c = self._reduce(c)
            if c:
                out.append((Fraction(n, den), c))
        return XPoly(tuple(out))

    def validate(self, a) -> XPoly:
        if not isinstance(a, XPoly):
            raise DomainError(f"expected an XPoly coefficient, got {type(a).__name__}")
        prev = None
        for e, c in a.monomials:
            self._check_exponent(e)
            if prev is not None and e <= prev:  # the readers stop at the first unit monomial
                raise DomainError(f"monomial exponents must strictly increase: {e} after {prev}")
            if not (0 < c and self._reduce(c) == c):
                raise DomainError(f"monomial coefficient {c} outside [1, {self.modulus - 1}]")
            prev = e
        return a

    def lift(self, a) -> XPoly:
        """Check an integer-coefficient representative without reducing it: its
        exponents lie on the lattice and its coefficients are ints, in any order."""
        if not isinstance(a, XPoly):
            raise DomainError(f"expected an XPoly coefficient, got {type(a).__name__}")
        return XPoly(tuple((self._check_exponent(e), _integer(c)) for e, c in a.monomials))

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
    N = 1  # F_p = Z/p^1
    _modulus: Optional[int] = field(default=None, init=False, compare=False, repr=False)

    @property
    def kind(self) -> str:
        return "perfect"


@dataclass(frozen=True, slots=True)
class PadicDigits(_Domain):
    """Integers modulo p^N as working-precision p-adic digits."""

    p: int
    N: int = 32
    denominators = "any"  # a digit has the single x-exponent 0
    _modulus: Optional[int] = field(default=None, init=False, compare=False, repr=False)

    @property
    def kind(self) -> str:
        return "padic"

    def monomials(self, a: int) -> Tuple[Tuple[Fraction, int], ...]:
        return ((_X0, a),) if a else ()

    def zero(self) -> int:
        return 0

    def one(self) -> int:
        return 1

    def from_int(self, n: int) -> int:
        return self._reduce(_integer(n))

    def is_zero(self, a: int) -> bool:
        return a == 0

    def _add(self, a: int, b: int) -> int:
        return self._reduce(a + b)

    def _mul(self, a: int, b: int) -> int:
        return self._reduce(a * b)

    def validate(self, a) -> int:
        if not isinstance(a, int) or isinstance(a, bool):
            raise DomainError(f"expected an integer digit, got {type(a).__name__}")
        if self._reduce(a) != a:
            raise DomainError(f"digit {a} outside [0, {self.modulus - 1}]")
        return a

    def lift(self, a) -> int:
        """Check an integer representative without reducing it mod p^N."""
        return _integer(a)

    def coerce(self, a) -> int:
        """Accept any integer representative and reduce it mod p^N."""
        if not isinstance(a, int) or isinstance(a, bool):
            raise DomainError(f"cannot coerce {type(a).__name__} into p-adic digits")
        return self._reduce(a)


@dataclass(frozen=True, slots=True)
class MixedPoly(_PolyDomain):
    """Polynomials in fractional powers of x with coefficients modulo p^N."""

    p: int
    N: int = 32
    denominators: str = "any"
    _modulus: Optional[int] = field(default=None, init=False, compare=False, repr=False)

    @property
    def kind(self) -> str:
        return "mixed"


CoefficientDomain = Union[PerfectPoly, PadicDigits, MixedPoly]


@lru_cache(maxsize=None)
def _residue_domain(p: int, denominators: str) -> PerfectPoly:
    """F_p with the denominator policy of its lift, built once per (p, policy)."""
    return PerfectPoly(p, denominators)
