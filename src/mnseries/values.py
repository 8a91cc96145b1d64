"""Exact exponents and valuation values.

Exponents are nonnegative :class:`fractions.Fraction` objects.  Valuations
take values in Q together with a top element ``INF``; the singleton absorbs
addition and compares above every rational, so ``min``, ``+`` and the
comparison operators work transparently on mixed values.  Gauss radii are
handled in additive form throughout: a multiplicative radius ``rho`` in
(0, 1] corresponds to the parameter ``s = -log(rho) >= 0`` and never
appears explicitly, which keeps every computation in exact rationals.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union


class Infinity:
    """The top element of the (min, +) value semiring."""

    _instance = None
    __slots__ = ()

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return isinstance(other, Infinity)

    def __gt__(self, other):
        return not isinstance(other, Infinity)

    def __ge__(self, other):
        return True

    def __eq__(self, other):
        return isinstance(other, Infinity)

    def __hash__(self):
        return hash("mnseries-infinity")

    def __add__(self, other):
        return self

    def __radd__(self, other):
        return self

    def __repr__(self):
        return "+oo"


INF = Infinity()

Value = Union[Fraction, Infinity]


def is_finite(v: Value) -> bool:
    return not isinstance(v, Infinity)


def _exact(x, rule: str) -> Fraction:
    """``x`` as a Fraction.  A bool or a float is not an exact rational: a
    binary float lies on the 2-power lattice and True passes as 1, so either
    would be taken silently; each raises ``ValueError(rule)``, as does
    whatever ``Fraction`` refuses (None, ``"1/0"``, a complex number)."""
    if type(x) is Fraction:
        return x
    if not isinstance(x, (bool, float)):
        try:
            return Fraction(x)
        except (ArithmeticError, TypeError, ValueError):
            pass
    raise ValueError(f"{rule}, got {x!r}")


def as_exponent(x) -> Fraction:
    """Coerce to a nonnegative exact rational exponent; a bool or a float is not one."""
    e = _exact(x, "exponents must be exact rationals")
    if e.numerator < 0:  # the denominator is positive
        raise ValueError(f"exponents must be nonnegative, got {e}")
    return e


def as_gauss_param(s) -> Fraction:
    """Coerce to a Gauss parameter (additive radius form, s >= 0); a bool or a float is not one."""
    v = _exact(s, "Gauss parameter must be an exact rational")
    if v < 0:
        raise ValueError(f"Gauss parameter must be nonnegative, got {v}")
    return v


def format_value(v: Value) -> str:
    """Render a value as ``num/den`` or ``+oo`` (never floating point)."""
    if isinstance(v, Infinity):
        return "+oo"
    if v.denominator == 1:
        return str(v.numerator)
    return f"{v.numerator}/{v.denominator}"
