"""Series literal grammar: parsing and canonical printing.

A literal is a sum of terms, each ``[coeff *] r^{q}`` where ``r`` is ``t``
(formal mode) or ``p`` (arithmetic mode) and ``q`` is a nonnegative
rational; a coefficient is an integer, a power of ``x``, or a
parenthesized sum of such monomials.  An optional trailing ``O(r^{q})``
sets the precision frontier.  Examples::

    (x^{3/2} + 2*x^{1/4})*t^{5/8} + x*t^{2} + O(t^{3})
    3*p^{1/2} + 1

Arithmetic-mode input is canonicalized on parse.  Printing is canonical
(terms in increasing exponent, monomials in increasing x-power, rationals
as ``num/den``), and ``parse(print(f))`` returns a series equal to ``f``.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from functools import reduce
from typing import List, Optional, Tuple

from .domains import CoefficientDomain, PadicDigits, XPoly
from .errors import ParseError
from .series import Mode, Series, _assemble
from .values import INF, Infinity, Value, format_value

__all__ = ["parse_series", "format_series", "series_variable"]

# a token, or (second group) any other non-space character, which is an error
_TOKEN_RE = re.compile(r"(\d+|[A-Za-z]+|[+*^{}()/])|(\S)")


def series_variable(mode: Mode) -> str:
    return "t" if mode is Mode.FORMAL else "p"


class _Tokenizer:
    """The literal's tokens with their start positions, read in one pass."""

    def __init__(self, text: str):
        self.text = text
        self.tokens: List[Tuple[str, int]] = []
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
        for m in _TOKEN_RE.finditer(text):
            if m.group(2) is not None:
                raise ParseError(f"unexpected character {m.group(2)!r}", m.start())
            tok = m.group(1)
            if limit and len(tok) > limit and tok[0].isdigit():  # int() would refuse it
                raise ParseError(f"integer of {len(tok)} digits exceeds the interpreter's "
                                 f"limit of {limit} digits", m.start())
            self.tokens.append((tok, m.start()))
        self.index = 0

    def peek(self) -> Optional[str]:
        if self.index < len(self.tokens):
            return self.tokens[self.index][0]
        return None

    def here(self) -> int:
        if self.index < len(self.tokens):
            return self.tokens[self.index][1]
        return len(self.text)

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", len(self.text))
        self.index += 1
        return tok

    def expect(self, literal: str) -> None:
        at = self.here()
        tok = self.next()
        if tok != literal:
            raise ParseError(f"expected {literal!r}, found {tok!r}", at)


def _parse_rational(tz: _Tokenizer) -> Fraction:
    at = tz.here()
    tok = tz.next()
    if not tok.isdigit():
        raise ParseError(f"expected a number, found {tok!r}", at)
    num = int(tok)
    if tz.peek() == "/":
        tz.next()
        at = tz.here()
        den_tok = tz.next()
        if not den_tok.isdigit():
            raise ParseError(f"expected a denominator, found {den_tok!r}", at)
        den = int(den_tok)
        if den == 0:
            raise ParseError("zero denominator", at)
        return Fraction(num, den)
    return Fraction(num)


def _parse_exponent(tz: _Tokenizer) -> Fraction:
    if tz.peek() == "{":
        tz.next()
        q = _parse_rational(tz)
        tz.expect("}")
        return q
    return _parse_rational(tz)


def _parse_x_monomial(tz: _Tokenizer, coeff: int) -> Tuple[Fraction, int]:
    tz.expect("x")
    if tz.peek() == "^":
        tz.next()
        return _parse_exponent(tz), coeff
    return Fraction(1), coeff


def _parse_x_poly(tz: _Tokenizer, domain) -> XPoly:
    """Sum of x-monomials inside parentheses."""
    monos: List[Tuple[Fraction, int]] = []
    while True:
        if tz.peek() == "x":
            monos.append(_parse_x_monomial(tz, 1))
        else:
            at = tz.here()
            tok = tz.next()
            if not tok.isdigit():
                raise ParseError(f"expected a coefficient monomial, found {tok!r}", at)
            c = int(tok)
            if tz.peek() == "*":
                tz.next()
                monos.append(_parse_x_monomial(tz, c))
            else:
                monos.append((Fraction(0), c))
        if tz.peek() == "+":
            tz.next()
            continue
        return domain.poly(monos)


def _parse_term(
    tz: _Tokenizer, domain: CoefficientDomain, var: str
) -> Tuple[Fraction, object]:
    """One summand: collect coefficient factors and at most one var power."""
    padic = isinstance(domain, PadicDigits)
    factors = []
    exponent: Optional[Fraction] = None
    while True:
        at = tz.here()
        tok = tz.peek()
        if tok is None:
            raise ParseError("empty term", at)
        if tok == var:
            tz.next()
            if exponent is not None:
                raise ParseError(f"repeated series variable {var!r}", at)
            if tz.peek() == "^":
                tz.next()
                exponent = _parse_exponent(tz)
            else:
                exponent = Fraction(1)
        elif tok == "(":
            if padic:
                raise ParseError("polynomial coefficients need a polynomial domain", at)
            tz.next()
            factors.append(_parse_x_poly(tz, domain))
            tz.expect(")")
        elif tok == "x":
            if padic:
                raise ParseError("coefficient variable 'x' needs a polynomial domain", at)
            factors.append(domain.x_power(*_parse_x_monomial(tz, 1)))
        elif tok.isdigit():
            tz.next()
            factors.append(domain.from_int(int(tok)))
        else:
            raise ParseError(f"unexpected token {tok!r}", at)
        if tz.peek() == "*":
            tz.next()
            continue
        break
    coeff = reduce(domain._mul, factors) if factors else domain.one()  # a bare r^q: 1
    return (exponent if exponent is not None else Fraction(0)), coeff


def parse_series(text: str, domain: CoefficientDomain, mode: Mode) -> Series:
    """Parse a series literal; arithmetic-mode results come back canonical."""
    tz = _Tokenizer(text)
    var = series_variable(mode)
    terms: List[Tuple[Fraction, object]] = []
    prec: Value = INF
    if tz.peek() is None:
        raise ParseError("empty series literal", 0)
    while True:
        if tz.peek() == "O":
            at = tz.here()
            tz.next()
            tz.expect("(")
            tz.expect(var)
            tz.expect("^")
            q = _parse_exponent(tz)
            tz.expect(")")
            if not isinstance(prec, Infinity):
                raise ParseError("multiple precision terms", at)
            prec = q
        else:
            terms.append(_parse_term(tz, domain, var))
        if tz.peek() == "+":
            tz.next()
            continue
        break
    if tz.peek() is not None:
        raise ParseError(f"trailing input {tz.peek()!r}", tz.here())
    return _assemble(domain, mode, terms, prec)  # every exponent and coefficient is checked


_ONE = ((Fraction(0), 1),)  # the monomials of the coefficient 1


def _format_coefficient(monomials, parenthesize: bool) -> str:
    """A coefficient from its (x-exponent, integer) monomials; a p-adic digit
    is the single x^0 monomial, so it prints as its integer."""
    parts = []
    for e, c in monomials:
        if e == 0:
            parts.append(str(c))
        else:
            xp = "x" if e == 1 else f"x^{{{format_value(e)}}}"
            parts.append(xp if c == 1 else f"{c}*{xp}")
    body = " + ".join(parts)
    if parenthesize and len(parts) > 1:
        return f"({body})"
    return body


def format_series(f: Series) -> str:
    """Canonical literal for a series; reparses to an equal series."""
    var = series_variable(f.mode)
    parts = []
    for e, a in f.terms:
        monos = f.domain.monomials(a)
        if e == 0:
            parts.append(_format_coefficient(monos, parenthesize=False))
            continue
        vp = var if e == 1 else f"{var}^{{{format_value(e)}}}"
        if monos == _ONE:
            parts.append(vp)
        else:
            parts.append(f"{_format_coefficient(monos, parenthesize=True)}*{vp}")
    if not isinstance(f.prec, Infinity):
        parts.append(f"O({var}^{{{format_value(f.prec)}}})")
    if not parts:
        return "0"
    return " + ".join(parts)
