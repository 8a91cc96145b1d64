"""Truncated Mal'cev-Neumann series arithmetic and the Gauss-valuation toolkit.

A :class:`Series` is a finite-support element ``sum a_i r^i`` with exact
rational exponents, where the variable ``r`` is a formal ``t`` (Formal mode,
plain convolution arithmetic) or the prime ``p`` itself (Arithmetic mode,
where sums and products are followed by p-adic carrying across
integer-shifted exponents).  The precision frontier ``prec`` means the
element is only known modulo ``O(r^prec)``.

Arithmetic-mode series are kept in canonical digit form: every stored
coefficient is a reduced digit of the base-p expansion, which makes the
representation unique.  :func:`canonicalize` converts a raw series into
this form by evaluating each coset ``gamma + Z`` of the support exactly
and re-expanding base p.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import inf, lcm
from typing import Collection, Iterable, Iterator, List, Tuple, Union

from .domains import CoefficientDomain, PadicDigits, PerfectPoly, XPoly
from .errors import ModeMismatchError, PrecisionLossError, ZeroSeriesError
from .values import INF, Infinity, Value, _exact, as_exponent, as_gauss_param

__all__ = [
    "Mode",
    "Series",
    "CarryTrace",
    "add",
    "mul",
    "canonicalize",
    "gauss_valuation",
    "argnorm",
    "restrict",
    "box_witness",
    "bar_witness",
    "localize",
    "term_values",
]


class Mode(enum.Enum):
    FORMAL = "formal"
    ARITHMETIC = "arithmetic"


@dataclass(frozen=True)
class CarryTrace:
    """Provenance of a product: which factor index pairs fed each output index.

    Each entry ``(i, j, k)`` records that the coefficient pair at exponents
    ``i`` of the left factor and ``j`` of the right factor contributes
    (possibly through carrying) to the output index ``k``.  In Formal mode
    ``k = i + j`` always; in Arithmetic mode ``k`` ranges over the output
    support positions of the coset of ``i + j`` at or above ``i + j``.  Only the supports are
    stored; on first read, one pass on integer numerators derives the entries and their index.
    """

    left: Tuple[Fraction, ...]
    right: Tuple[Fraction, ...]
    product: Tuple[Fraction, ...]
    prec: Value
    carried: bool

    @cached_property
    def _derived(self) -> Tuple[tuple, dict]:
        den, stop = _common(self.left + self.right + self.product, self.prec)
        cosets: dict = {}  # coset, as a numerator mod den -> [(numerator, output index)], ascending
        for k in self.product:
            num = k.numerator * (den // k.denominator)
            cosets.setdefault(num % den, []).append((num, k))
        right = [(j, j.numerator * (den // j.denominator)) for j in self.right]
        entries, by_index = [], {}
        for i in self.left:
            ni = i.numerator * (den // i.denominator)
            for j, nj in right:
                lo = ni + nj
                if lo >= stop:
                    continue
                nks = cosets.get(lo % den, []) if self.carried else [(lo, i + j)]
                for _, k in nks[bisect_left(nks, (lo,)):]:
                    entries.append((i, j, k))
                    by_index.setdefault(k, []).append((i, j))
        return tuple(entries), by_index

    @property
    def entries(self) -> Tuple[Tuple[Fraction, Fraction, Fraction], ...]:
        return self._derived[0]

    def contributors_to(self, k: Fraction) -> Tuple[Tuple[Fraction, Fraction], ...]:
        return tuple(self._derived[1].get(k, ()))

    def pairs_up_to(self, k: Fraction) -> Tuple[Tuple[Fraction, Fraction], ...]:
        return tuple(sorted({ij for kk, ijs in self._derived[1].items() if kk <= k for ij in ijs}))


@dataclass(frozen=True, slots=True)
class Series:
    """Finite-support truncated series over a coefficient domain.

    :meth:`make` checks and coerces outside terms, and :func:`canonicalize`
    checks raw terms through the domain's ``lift``; the library never sends
    the terms it built through either.  The raw constructor checks nothing:
    the library's own operations build series with it, on distinct
    ascending exponents below ``prec``, each with a nonzero element of the
    domain, and the valuations and :func:`mul`'s products trust such
    terms, reading them through the domain's unchecked kernels.
    """

    domain: CoefficientDomain
    mode: Mode
    terms: Tuple[Tuple[Fraction, object], ...]
    prec: Value  # exponent frontier; INF for an untruncated element

    @classmethod
    def make(
        cls,
        domain: CoefficientDomain,
        mode: Mode,
        terms: Iterable[Tuple[object, object]] = (),
        prec: Value = INF,
    ) -> "Series":
        """Build a series from outside terms, merging duplicate exponents and dropping zeros.

        Every term is checked and coerced into the domain, including terms
        at or beyond ``prec``, which the frontier then absorbs.  In
        Arithmetic mode the carry builds the canonical result.
        """
        if not isinstance(prec, Infinity):
            prec = as_exponent(prec)
        checked = ((as_exponent(e), domain.coerce(a)) for e, a in terms)
        return _assemble(domain, mode, checked, prec)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def support(self) -> Tuple[Fraction, ...]:
        return tuple(e for e, _ in self.terms)

    def order_bound(self) -> Value:
        """Smallest support exponent, or the frontier for a zero truncation."""
        if self.terms:
            return self.terms[0][0]
        return self.prec

    def coefficient(self, e) -> object:
        """The coefficient at ``e``, which must lie below the frontier: past it,
        nothing is known, so there the series has no coefficient to give."""
        e = as_exponent(e)
        if e >= self.prec:
            raise ValueError(f"the coefficient at {e} lies at or past the frontier {self.prec}")
        for exp, a in self.terms:
            if exp == e:
                return a
        return self.domain.zero()

    def with_prec(self, prec: Value) -> "Series":
        """The series truncated at ``prec``, which may not lie above the
        frontier: nothing is known of the terms past it."""
        if not isinstance(prec, Infinity):
            prec = as_exponent(prec)
        if prec > self.prec:
            raise ValueError(f"cannot raise the frontier from {self.prec} to {prec}")
        return Series(self.domain, self.mode, tuple(t for t in self.terms if t[0] < prec), prec)

    def __repr__(self) -> str:  # avoid importing the grammar module here
        parts = " + ".join(f"[{a!r}]r^{e}" for e, a in self.terms) or "0"
        tail = "" if isinstance(self.prec, Infinity) else f" + O(r^{self.prec})"
        return f"<Series {self.mode.value}/{self.domain.kind}: {parts}{tail}>"


def _check_compatible(f: Series, g: Series) -> None:
    if f.domain != g.domain:
        raise ModeMismatchError(f"domain mismatch: {f.domain} vs {g.domain}")
    if f.mode is not g.mode:
        raise ModeMismatchError(f"mode mismatch: {f.mode.value} vs {g.mode.value}")


def _assemble(dom: CoefficientDomain, mode: Mode, terms: Iterable, prec: Value) -> Series:
    """The series of checked (exponent, coefficient) pairs: equal exponents
    below ``prec`` are folded with ``dom.add``, then carried in Arithmetic
    mode, or stripped of zeros and sorted in Formal mode.  Below an infinite
    frontier every exponent passes, so no exponent is compared with it."""
    if mode is Mode.ARITHMETIC and isinstance(dom, PerfectPoly):
        raise ModeMismatchError("arithmetic (p-adic) mode needs a mixed-characteristic "
                                "domain; PerfectPoly has characteristic p")
    acc: dict = {}
    finite = not isinstance(prec, Infinity)
    for e, a in terms:
        if finite and e >= prec:
            continue
        if e in acc:
            acc[e] = dom.add(acc[e], a)
        else:
            acc[e] = a
    if mode is Mode.ARITHMETIC:
        return _carry(dom, acc.items(), prec)
    clean = sorted((e, a) for e, a in acc.items() if not dom.is_zero(a))
    return Series(dom, mode, tuple(clean), prec)


def add(f: Series, g: Series) -> Series:
    """Coefficient-wise sum; re-canonicalized (carried) in Arithmetic mode."""
    _check_compatible(f, g)
    return _assemble(f.domain, f.mode, f.terms + g.terms, min(f.prec, g.prec))


def mul(f: Series, g: Series) -> Tuple[Series, CarryTrace]:
    """Convolution product with carry provenance.

    The output precision is ``min(prec_f + ord(g), prec_g + ord(f))`` where
    ``ord`` falls back to the frontier on a zero truncation.
    """
    _check_compatible(f, g)
    prec = min(f.prec + g.order_bound(), g.prec + f.order_bound())
    dom = f.domain
    if isinstance(prec, Infinity):  # every pair product lies below the frontier
        terms = ((i + j, dom._mul(a, b)) for i, a in f.terms for j, b in g.terms)
    else:
        terms = ((i + j, dom._mul(a, b)) for i, a in f.terms for j, b in g.terms if i + j < prec)
    result = _assemble(dom, f.mode, terms, prec)
    carried = f.mode is Mode.ARITHMETIC
    return result, CarryTrace(f.support, g.support, result.support, prec, carried)


def _common(exps: Iterable[Fraction], prec: Value) -> Tuple[int, Union[int, float]]:
    """A common denominator ``den`` of ``exps``, on which ``e`` is the integer ``e*den`` (offset
    ``// den``, coset ``% den``), and the first such integer at or past ``prec``."""
    den = lcm(*(e.denominator for e in exps))
    return den, inf if isinstance(prec, Infinity) else -(-prec.numerator * den // prec.denominator)


def canonicalize(f: Series) -> Series:
    """Canonical digit form of an Arithmetic-mode series: the carry :meth:`Series.make` runs.

    Each term is checked as :meth:`Series.make` checks it, but its integers
    stay unreduced, so the carry is exact and reports any overflow past p^N.
    """
    if f.mode is not Mode.ARITHMETIC:
        raise ModeMismatchError("canonicalize applies to arithmetic-mode series")
    dom = f.domain
    if isinstance(dom, PerfectPoly):
        raise ModeMismatchError("arithmetic mode over a characteristic-p domain")
    prec = f.prec if isinstance(f.prec, Infinity) else as_exponent(f.prec)
    return _carry(dom, [(as_exponent(e), dom.lift(a)) for e, a in f.terms], prec)


def _carry(dom: CoefficientDomain, terms: Collection, prec: Value) -> Series:
    """The canonical arithmetic series of (exponent, coefficient) pairs below ``prec``.

    Every exponent is an integer numerator over one common denominator, and
    the support is grouped by coset ``gamma + Z``, a numerator residue.  For
    each x-exponent ``e`` the coset's terms are ``(offset n, integer c)``
    pairs of the exact sum ``sum_n c_(gamma+n, e) p^n``, whose base-p digits
    :func:`_digits` yields in order of offset, so the output digits are
    reduced and unique, and one ``Fraction`` is built per output index.
    Each coset is read up to the frontier and up to offset N: a digit at
    offset >= N (but below ``prec``) cannot be represented modulo p^N and
    raises :class:`PrecisionLossError`, naming the lowest such index (on a
    tie, the smallest x-exponent).  These two stops also bound the endless
    digits of a negative sum.
    """
    p, N = dom.p, dom.N
    den, stop = _common((e for e, _ in terms), prec)
    cosets: dict = {}  # (coset numerator, x-exponent's num, den) -> [x-exponent, (n, c), ...]
    for e, a in terms:
        n, gamma = divmod(e.numerator * (den // e.denominator), den)
        for xe, c in dom.monomials(a):
            cosets.setdefault((gamma, xe.numerator, xe.denominator), [xe]).append((n, c))
    digits: dict = {}  # index numerator -> [(x-exponent, digit)]
    lost = []  # unrepresentable digits: (index numerator, x-exponent, offset, coset numerator)
    for (gamma, _, _), (xe, *pairs) in cosets.items():
        for n, digit in _digits(p, pairs):
            num = gamma + n * den
            if num >= stop:  # every later digit of the coset lies past prec too
                break
            if n >= N:
                lost.append((num, xe, n, gamma))  # the lowest one of its coset
                break
            digits.setdefault(num, []).append((xe, digit))
    if lost:
        k, _, offset, gamma = min(lost)
        raise PrecisionLossError(Fraction(k, den), Fraction(gamma, den), offset, dom.N)
    padic = isinstance(dom, PadicDigits)
    out = [(Fraction(k, den), ms[0][1] if padic else XPoly(tuple(sorted(ms))))
           for k, ms in sorted(digits.items())]
    return Series(dom, Mode.ARITHMETIC, tuple(out), prec)


def _digits(p: int, pairs: List[Tuple[int, int]]) -> Iterator[Tuple[int, int]]:
    """The nonzero base-p digits ``(n, digit)`` of ``sum c p^n`` over the pairs
    ``(n, c)``, in order of n; a negative sum has endless digits p - 1, so the
    caller bounds the walk.  It takes the pairs in order of n and skips each gap
    in which the running value is 0, so it builds no power of p: a nonzero value
    shows a nonzero digit within about log_p |value| places."""
    j = value = 0  # value * p^j is what the pairs before offset j still carry
    for n, c in sorted(pairs) + [(inf, 0)]:
        while value and j < n:
            value, digit = divmod(value, p)
            if digit:
                yield j, digit
            j += 1
        j, value = n, value + c


def _term_value_pairs(f: Series, s: Fraction) -> Iterator[Tuple[Fraction, int, int]]:
    """``(i, num, den)`` per term in support order: its value ``v + s*i`` is
    ``num/den`` over the integers, and ``1/0`` when ``v`` is +oo."""
    sn, sd = s.numerator, s.denominator
    valuation = f.domain._valuation_at
    for i, a in f.terms:
        v, d = valuation(a, s), i.denominator * sd
        if v is INF:
            yield i, 1, 0
        else:  # v + s*i = (vn*sd*id + sn*in*vd) / (vd*sd*id)
            yield i, v.numerator * d + sn * i.numerator * v.denominator, v.denominator * d


def term_values(f: Series, s) -> List[Tuple[Fraction, Value]]:
    """Per-term valuations ``base_valuation(a_i, s) + s*i`` in support order, one Fraction each."""
    return [(i, Fraction(num, den) if den else INF)
            for i, num, den in _term_value_pairs(f, as_gauss_param(s))]


def _lowest(values: List[Tuple[Fraction, Value]]) -> Tuple[Fraction, Value]:
    """Smallest index attaining the least of nonempty term values, and that value."""
    best = min(v for _, v in values)
    return next(i for i, v in values if v == best), best


def gauss_valuation(f: Series, s) -> Tuple[Value, bool]:
    """Gauss valuation ``min_i (v_s(a_i) + s*i)`` and an exactness flag.

    The flag is False when terms hidden behind the precision frontier could
    undercut the computed minimum, i.e. unless ``prec`` is infinite or
    ``s * prec`` already dominates the result.
    """
    s = as_gauss_param(s)
    bn, bd = 1, 0  # the least term value so far, bn/bd, from +oo = 1/0 down
    for _, num, den in _term_value_pairs(f, s):
        if num * bd < bn * den:
            bn, bd = num, den
    best = Fraction(bn, bd) if bd else INF
    if isinstance(f.prec, Infinity):
        return best, True
    if isinstance(best, Infinity):
        return best, False
    return best, s * f.prec >= best


def argnorm(f: Series, s) -> Fraction:
    """Smallest support index attaining the Gauss valuation."""
    if f.is_zero:
        raise ZeroSeriesError("argnorm of the zero series is undefined")
    return _lowest(term_values(f, s))[0]


def restrict(f: Series, lo, hi, threshold: Value, s) -> Series:
    """Sub-series with index in [lo, hi) whose term value is <= threshold."""
    lo = as_exponent(lo)
    hi = hi if isinstance(hi, Infinity) else as_exponent(hi)
    if not isinstance(threshold, Infinity):
        threshold = _exact(threshold, "thresholds must be exact rationals")
    kept = tuple((i, a) for (i, a), (_, v) in zip(f.terms, term_values(f, s))
                 if lo <= i and i < hi and v <= threshold)
    return Series(f.domain, f.mode, kept, f.prec)


def box_witness(f: Series, s) -> Tuple[Fraction, Fraction]:
    """Witness (eps_a, delta_a) for the empty box above the argnorm.

    ``eps_a`` is the gap from the argnorm to the next larger support index
    (1 when there is none); ``delta_a`` is half the gap from the Gauss
    valuation to the next-smallest distinct term value (1 when unique).
    All of it, and the re-scan of the certified window before returning,
    reads one pass of term values.
    """
    if f.is_zero:
        raise ZeroSeriesError("box witness of the zero series is undefined")
    values = term_values(f, s)
    a_star, v0 = _lowest(values)
    above = [i for i, _ in values if i > a_star]
    eps_a = (above[0] - a_star) if above else Fraction(1)
    distinct = sorted({v for _, v in values})
    delta_a = (distinct[1] - distinct[0]) / 2 if len(distinct) > 1 else Fraction(1)
    if any(a_star < i < a_star + eps_a and v <= v0 + delta_a for i, v in values):
        raise AssertionError("box witness window not empty")  # pragma: no cover
    return eps_a, delta_a


def bar_witness(f: Series, s, eps) -> Fraction:
    """Witness delta_b: no term left of ``argnorm - eps`` comes within delta_b
    of the Gauss valuation.  Half the scanned gap; 1 when the window is empty.
    The argnorm, the valuation and the gaps read one pass of term values.
    """
    if f.is_zero:
        raise ZeroSeriesError("bar witness of the zero series is undefined")
    eps = as_gauss_param(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    values = term_values(f, s)
    a_star, v0 = _lowest(values)
    cutoff = a_star - eps
    gaps = [v - v0 for i, v in values if i < cutoff]
    return min(gaps) / 2 if gaps else Fraction(1)


def localize(f: Series, g: Series, s) -> Tuple[Tuple[Series, Series], Value]:
    """Restrict both factors to small windows at their argnorms and predict
    the product valuation.

    Box witnesses of each factor cap the bar epsilons of the other; the
    value cut is half the smallest of the four witnesses.  The prediction
    ``v_s(f) + v_s(g)`` equals the Gauss valuation of the product.  Each
    factor's argnorm and valuation come from the one pass of term values
    that cuts its window.
    """
    _check_compatible(f, g)
    if f.is_zero or g.is_zero:
        raise ZeroSeriesError("localize needs nonzero factors")
    s = as_gauss_param(s)
    eps_box_f, delta_box_f = box_witness(f, s)
    eps_box_g, delta_box_g = box_witness(g, s)
    eps_bar_f = eps_box_g / 2
    eps_bar_g = eps_box_f / 2
    delta_bar_f = bar_witness(f, s, eps_bar_f)
    delta_bar_g = bar_witness(g, s, eps_bar_g)
    delta = min(delta_box_f, delta_bar_f, delta_box_g, delta_bar_g) / 2

    def window(h: Series, eps: Fraction) -> Tuple[Series, Value]:
        values = term_values(h, s)
        a_star, v = _lowest(values)
        kept = tuple((i, a) for (i, a), (_, w) in zip(h.terms, values)
                     if a_star - eps < i and i <= a_star and w <= v + delta)
        return Series(h.domain, h.mode, kept, h.prec), v

    f_loc, vf = window(f, eps_bar_f)
    g_loc, vg = window(g, eps_bar_g)
    return (f_loc, g_loc), vf + vg
