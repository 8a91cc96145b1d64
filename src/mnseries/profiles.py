"""Decay profiles, discrete approximation, and asymptotic separation chains.

A profile is the closed-form element whose Newton polygon tracks a power
law ``c * x^(-r)``.  Its infimum Legendre transform is ``K * s^mu`` with
``mu = r/(r+1)``; normalizing ``K = 1`` forces ``c = r^r / (r+1)^(r+1)``,
which this module computes exactly (as a rational when it is one, as a
certified rational interval otherwise) and checks in integers: with
``r = a/b``, ``c^b (a+b)^(a+b) = a^a b^b``.

Materializing a profile yields a genuine truncated series whose digit at
index i is ``x^(q_i)`` with ``q_i`` a lattice rational within the ``o(G)``
deviation bound of ``c * i^(-r)``.  The indices run over the integers by
default, or over the refined lattice ``(1/p^j) Z`` inside ``Z[1/p]``, the
exponent group of ``K<x^(1/p^oo)>``.  Separation of two profiles is
an exact comparison of Legendre exponents; a chain report aggregates all
pairwise separations over a grid of exponents together with ideal
membership of the materialized elements and empirical Legendre ratios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple, Union

from .domains import CoefficientDomain, PadicDigits, PerfectPoly, _p_power_denominator
from .errors import MNSeriesError
from .polygon import IndexPoints, legendre_eval, lower_hull
from .series import Mode, Series, _assemble, _carry
from .values import _exact

__all__ = [
    "RationalInterval",
    "PowerLaw",
    "AsymptoticClass",
    "ProfileElement",
    "ApproxCertificate",
    "ChainReport",
    "TargetError",
    "iroot",
    "inverse_legendre_power",
    "legendre_power_law",
    "materialize",
    "deviation_within_bound",
    "discretely_approximate",
    "classify",
    "chain_report",
    "in_m",
    "supremum_example",
]

_EXPONENTS = "profile exponents must be exact rationals"


class TargetError(MNSeriesError):
    """Discrete-approximation targets were increasing or non-convex."""

    def __init__(self, message: str, triple):
        super().__init__(f"{message}: {triple}")
        self.triple = triple


def iroot(n: int, value: int) -> int:
    """Floor of the integer n-th root of a nonnegative integer.

    Newton's iteration, exact in integers, from any start at or above the
    root.  The start is 2 to the root's base-2 logarithm, read off the
    value's leading 64 bits, raised by 2^-30 relative: far beyond its
    rounding error for roots under about 10^6 bits, so the steps shrink
    quadratically at once.  Floats only guess: unless ``x^n > value``
    certifies it, Newton starts from ``2^ceil(bits / n)``, up to twice the
    root, where each step only shrinks by about ``1 - 1/n``.  n must be an
    int >= 1 and value an int >= 0 (a bool is neither); else ValueError.
    """
    n = _positive_integer(n, "root degree")
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ValueError(f"iroot needs an integer value >= 0, got {value!r}")
    if value == 0:
        return 0
    bits = value.bit_length()
    shift = max(0, bits - 64)
    t = (math.log2(value >> shift) + shift) / n  # log2 of the root
    k = max(0, int(t) - 60)
    x = (int(2.0 ** (t - k) * (1 + 2.0**-30)) + 1) << k
    if x**n <= value:
        x = 1 << ((bits + n - 1) // n)
    while True:
        y = ((n - 1) * x + value // x ** (n - 1)) // n
        if y >= x:
            return x
        x = y


@dataclass(frozen=True, slots=True)
class RationalInterval:
    """Certified enclosure [lo, hi] of an algebraic constant."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if not self.lo <= self.hi:
            raise ValueError("empty interval")

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo


def _nth_root_interval(q: Fraction, n: int) -> RationalInterval:
    """Enclosure of q**(1/n) with absolute width 1 / (den * 2^64)."""
    scale = 1 << 64
    num, den = q.numerator, q.denominator
    m = iroot(n, num * den ** (n - 1) * scale**n)
    return RationalInterval(Fraction(m, den * scale), Fraction(m + 1, den * scale))


def _certify_inverse_constant(c: Union[Fraction, RationalInterval], a: int, b: int) -> None:
    """Exact check that c solves ``c^b (a+b)^(a+b) = a^a b^b`` (r = a/b), with
    denominators cleared: a rational ``u/v`` must give
    ``u^b (a+b)^(a+b) = a^a b^b v^b``, and an interval must bracket that value."""
    target, scale = a**a * b**b, (a + b) ** (a + b)
    if isinstance(c, Fraction):
        ok = c.numerator**b * scale == target * c.denominator**b
    else:
        lo, hi = c.lo, c.hi
        ok = (lo.numerator**b * scale <= target * lo.denominator**b
              and target * hi.denominator**b <= hi.numerator**b * scale)
    if not ok:
        raise MNSeriesError(
            f"inverse Legendre constant {c} for r={Fraction(a, b)} failed its certificate")


def inverse_legendre_power(mu) -> Tuple[Union[Fraction, RationalInterval], Fraction]:
    """Constants (c, r) with ``inf_x (c x^-r + s x) = s^mu`` for 0 < mu < 1.

    ``r = mu / (1 - mu)`` exactly.  Writing r = a/b in lowest terms,
    ``c^b = a^a b^b / (a+b)^(a+b)``.  c is returned as the exact rational
    ``a^a / (a+1)^(a+1)`` when b = 1 and as a certified interval otherwise.
    The constant is accepted only after the exact integer certificate
    ``c^b (a+b)^(a+b) = a^a b^b`` holds, or, for an interval, brackets it.

    For b >= 2, c is irrational.  Since gcd(a, b) = 1, a and b are both
    prime to a + b, so the quotient is in lowest terms, and it is a b-th
    power only if both ``a^a b^b`` and ``(a+b)^(a+b)`` are.  For a prime q
    dividing a, b then divides ``a * ord_q(a)``, hence ``ord_q(a)``; so
    a = x^b, and likewise a + b = y^b with y > x >= 1.  But
    ``y^b - x^b >= (x+1)^b - x^b >= b x^(b-1) + 1 > b``.
    """
    return _inverse_legendre_power_cached(_exact(mu, _EXPONENTS))


@lru_cache(maxsize=None)
def _inverse_legendre_power_cached(mu: Fraction) -> Tuple[Union[Fraction, RationalInterval], Fraction]:
    if not 0 < mu < 1:
        raise ValueError(f"exponent must lie in (0, 1), got {mu}")
    r = mu / (1 - mu)
    a, b = r.numerator, r.denominator
    c: Union[Fraction, RationalInterval]
    if b == 1:  # c is irrational otherwise; see inverse_legendre_power
        c = Fraction(a**a, (a + 1) ** (a + 1))
    else:
        c = _nth_root_interval(Fraction(a**a * b**b, (a + b) ** (a + b)), b)
    _certify_inverse_constant(c, a, b)
    return c, r


@dataclass(frozen=True, slots=True)
class PowerLaw:
    """The function ``s -> coeff * s^exponent`` near s -> 0."""

    coeff: Union[Fraction, float]
    exponent: Fraction

    def __post_init__(self):
        if not self.coeff > 0:
            raise ValueError("power-law coefficient must be positive")


@dataclass(frozen=True, slots=True)
class AsymptoticClass:
    """Comparison verdict of two power laws as s -> 0."""

    verdict: str  # 'omega' | 'theta' | 'o'

    @property
    def in_O_sup(self) -> bool:
        return self.verdict != "omega"

    @property
    def in_omega_sup(self) -> bool:
        return self.verdict == "omega"


def classify(F: PowerLaw, G: PowerLaw) -> AsymptoticClass:
    """Classify F against G for the limit s -> 0 by exact exponent comparison.

    A smaller exponent dominates as s -> 0: F/G = s^(aF - aG) tends to
    infinity when aF < aG (omega), to a finite nonzero constant when the
    exponents agree (theta), and to zero when aF > aG (o).
    """
    if F.exponent < G.exponent:
        return AsymptoticClass("omega")
    if F.exponent == G.exponent:
        return AsymptoticClass("theta")
    return AsymptoticClass("o")


def _index_parts(i) -> Tuple[int, int]:
    """Numerator and denominator of a rational digit index, which must be at least 1."""
    if isinstance(i, bool) or not isinstance(i, (int, Fraction)):
        raise ValueError(f"digit index must be an int or a Fraction, got {i!r}")
    n, d = i.numerator, i.denominator
    if n < d:
        raise ValueError("digit indices start at 1")
    return n, d


def _positive_integer(i, what: str) -> int:
    """A target index or a depth, which must be an integer >= 1 (a bool is not one)."""
    if isinstance(i, bool) or not isinstance(i, (int, Fraction)) or i.denominator != 1 or i < 1:
        raise ValueError(f"{what} must be an integer >= 1, got {i!r}")
    return int(i)


GUARD_BITS = 12  # digit precision beyond the o(G) deviation bound, in bits
_LN2 = math.log(2)
# below 2^40 a float guess of m = tau p^k (relative error about 1e-13) is
# exact or one off, so certifying it takes a comparison or two; above, m
# starts from iroot.  The certificate decides m either way.
_FLOAT_GUESS_MAX = 40 * _LN2


class _DigitRule(NamedTuple):
    """What a profile's digit rule needs that does not depend on the index,
    for ``c = u/v`` and ``r = a/b`` in lowest terms."""

    a: int
    b: int
    ub: int  # u^b
    vb: int  # v^b
    step: int  # p^b
    ln_p: float
    ln_c: float
    r_float: float


@dataclass(frozen=True, slots=True)
class ProfileElement:
    """Closed-form element whose polygon tracks ``c * i^(-r)`` for indices i >= 1.

    The digit rule places ``x^(q_i)`` at index i, with q_i the nearest
    point of the p-power exponent lattice at a scale fine enough that
    ``|q_i - c i^(-r)| <= c i^(-r) / (2^GUARD_BITS * 2 i^2)``; this sits
    far inside the required o(G) deviation ``G(i)/i`` while keeping all
    denominators powers of p.  The index may be any rational i >= 1, such
    as the points ``n / p^j`` of a refined lattice (see :func:`materialize`);
    the rule is the same and every digit is decided by exact integer
    comparisons.  The rule runs as one stream over a run of indices
    ``n/d`` (``_digits``), which :meth:`digit_exponent`,
    :func:`materialize` and :func:`chain_report` all read.  Its
    profile-wide integers (``u^b``, ``v^b``, ``p^b``) and logarithms are
    computed once, at construction, into a field that takes no part in
    ``==``, ``hash`` or ``repr``.  ``c`` and
    ``r`` must each be an int or a Fraction (a bool is neither); anything
    else raises a ValueError that names the field and the value.
    """

    domain: CoefficientDomain
    c: Fraction
    r: Fraction
    _rule: _DigitRule = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if isinstance(self.domain, PadicDigits):
            raise ValueError("profiles need a polynomial coefficient domain")
        for name in ("c", "r"):
            value = getattr(self, name)
            if not isinstance(value, (int, Fraction)) or isinstance(value, bool):
                raise ValueError(f"profile {name} must be an int or a Fraction, got {value!r}")
        if not self.c > 0:
            raise ValueError("profile constant must be positive")
        if not self.r > 0:
            raise ValueError("profile decay rate must be positive")
        p = self.domain.p
        a, b = self.r.numerator, self.r.denominator
        u, v = self.c.numerator, self.c.denominator
        rule = _DigitRule(a, b, u**b, v**b, p**b, math.log(p),
                          math.log(u) - math.log(v), a / b)
        object.__setattr__(self, "_rule", rule)

    @classmethod
    def for_exponent(cls, mu, domain: CoefficientDomain) -> "ProfileElement":
        """Profile normalized so the exact Legendre transform is s^mu."""
        c, r = inverse_legendre_power(mu)
        c_rat = c if isinstance(c, Fraction) else c.midpoint
        return cls(domain, c_rat, r)

    @property
    def mu(self) -> Fraction:
        return Fraction(self.r, self.r + 1)

    def digit_exponent(self, i) -> Fraction:
        """Lattice exponent ``q_i = m / p^k`` approximating ``tau = c * i^(-r)``."""
        n, d = _index_parts(i)
        [(m, k)] = self._digits(d, n, n + 1)
        return Fraction(m, self.domain.p**k)

    def _digits(self, d: int, start: int, stop: int) -> List[Tuple[int, int]]:
        """The digit rule on integers: ``(m, k)`` at each index ``i = n/d``, ``start <= n < stop``.

        The indices must be at least 1 (``start >= d``), in any terms.  k is
        the least k >= 0 with ``p^-k <= tau / (2^GUARD_BITS i^2)``, and m is
        ``tau p^k`` rounded to the nearest integer, half up.  Floats only
        guess k and m, from logarithms of the integers (which never
        overflow); exact integer comparisons then move each guess to the
        true value, so every digit is exact.  The bound on ``p^-k`` shrinks
        as n grows, so k never falls along the stream: the first index
        certifies its float guess both ways, and each later index starts
        from the k before it and only steps up (k - 1 already failed at a
        smaller index).  What does not depend on n is computed once.
        """
        a, b, ub, vb, step, ln_p, ln_c, r_float = self._rule
        # With i = n/d, (tau p^k)^b d^(2b) = rhs_k / Q for rhs_k = ub d^(2b+a) p^(kb)
        # and Q = vb n^a.  k is enough when (2^G n^2)^b <= floor(rhs_k / Q), that is
        # when rhs_k >= Q n^(2b) 2^(Gb); the stream keeps 2^b rhs_k, so m reads
        # W = floor((2 tau p^k)^b) = floor(2^b rhs_k / Q) // d^(2b) directly.
        d2b, ln_d, shift = d ** (2 * b), math.log(d), (GUARD_BITS + 1) * b
        ln_i = math.log(start) - ln_d
        k = max(0, math.ceil((GUARD_BITS * _LN2 - ln_c + (2 + r_float) * ln_i) / ln_p))
        twice_rhs = ub * d ** (2 * b + a) * step**k << b
        need = vb * start ** (a + 2 * b) << shift
        while k and twice_rhs // step >= need:
            k -= 1
            twice_rhs //= step
        digits = []
        for n in range(start, stop):
            Q = vb * n**a
            need = Q * n ** (2 * b) << shift
            while twice_rhs < need:
                k += 1
                twice_rhs *= step
            W = twice_rhs // Q // d2b
            # m is the largest m with (2m - 1)^b <= W
            ln_m = ln_c + k * ln_p - r_float * (math.log(n) - ln_d)
            m = int(math.exp(ln_m) + 0.5) if ln_m < _FLOAT_GUESS_MAX else (iroot(b, W) + 1) // 2
            while (2 * m + 1) ** b <= W:
                m += 1
            while (2 * m - 1) ** b > W:
                m -= 1
            digits.append((m, k))
        return digits


def deviation_within_bound(profile: ProfileElement, i, q: Fraction) -> bool:
    """Exact check of ``0 <= q`` and ``|q - c i^(-r)| <= c i^(-r) / i`` (irrational target).

    The index i may be any rational i >= 1, written n/d.  Both inequalities
    are cleared of denominators and raised to the b-th power (r = a/b), so
    only integer comparisons remain.
    """
    n, d = _index_parts(i)
    if q < 0:
        return False
    a, b = profile.r.numerator, profile.r.denominator
    u, v = profile.c.numerator, profile.c.denominator
    qm, qd = q.numerator, q.denominator
    scaled = (qm * v * n) ** b * n**a
    upper = scaled <= (u * (n + d) * qd) ** b * d**a
    lower = (u * (n - d) * qd) ** b * d**a <= scaled
    return upper and lower


def _steps_per_unit(step, p: int) -> int:
    """p^j for an index step 1/p^j; any other step is rejected."""
    h = _exact(step, "index steps must be exact rationals")
    if h.numerator != 1 or not _p_power_denominator(h.denominator, p):
        raise ValueError(f"index step must be 1/p^j with p = {p}, got {h}")
    return h.denominator


def materialize(profile: ProfileElement, up_to: int, step=1) -> Series:
    """Truncated series ``sum_i x^(q_i) t^i``, i = h, 2h, ... in [1, up_to], prec up_to + 1.

    The index step h must be ``1/p^j`` (j >= 0); the default h = 1 places
    one digit at each integer index.  A finer step places ``p^j`` digits per
    unit, at every ``n / p^j`` with ``p^j <= n <= p^j * up_to``, which the
    exponent group ``Z[1/p]`` of the paper's series allows.

    The step matters for the Legendre transform at moderate s.  The
    transform of ``c x^(-r)`` is ``s^mu``, attained at
    ``x* = (c r / s)^(1/(r+1))``, and the polygon's minimum over the index
    lattice exceeds it by about ``r h^2 / (8 x*^2)`` relative to ``s^mu``.
    On integer indices no choice of digits q_i >= 0 repairs this near
    ``x* ~ 1``.  For mu = 7/8 every index i >= 2 gives ``q_i + s i >= 2 s``,
    above ``1.05 s^mu`` at s = 2^-4 and 2^-5, so i = 1 must attain the
    minimum at both; a ratio within [0.95, 1.05] then needs q_1 in
    [0.0215, 0.0303] at s = 2^-4 and in [0.0145, 0.0194] at s = 2^-5,
    which are disjoint.

    The digits come from one stream of the digit rule over ``n / p^j``,
    and each is built once, as the monomial ``x^(m/p^k)`` straight from
    the rule's integers, with no lattice check (see the domain's
    ``_p_power_monomial``).  The indices increase and every digit is
    nonzero, so the terms are already in series form: a ``PerfectPoly``
    profile takes them as they are, and a ``MixedPoly`` profile is carried
    once, with no term checked again.
    O(up_to / h) digits, each O(1) big-integer operations in their size.
    """
    up_to = _positive_integer(up_to, "depth")
    dom = profile.domain
    per_unit = _steps_per_unit(step, dom.p)
    mode = Mode.FORMAL if isinstance(dom, PerfectPoly) else Mode.ARITHMETIC
    stop = per_unit * up_to + 1
    digits = profile._digits(per_unit, per_unit, stop)
    terms = tuple((Fraction(n, per_unit), dom._p_power_monomial(m, k))
                  for n, (m, k) in zip(range(per_unit, stop), digits))
    prec = Fraction(up_to + 1)
    return _carry(dom, terms, prec) if mode is Mode.ARITHMETIC else Series(dom, mode, terms, prec)


def legendre_power_law(profile: ProfileElement) -> PowerLaw:
    """Power-law class of the profile's Legendre transform as s -> 0.

    The exponent is exactly ``r/(r+1)``.  The coefficient is exactly 1 when
    the profile constant is the exact normalizing rational; otherwise it is
    the (float) Legendre constant of the stored rational approximation,
    indistinguishable from 1 at the certified interval width.
    """
    mu = profile.mu
    c_exact, _ = inverse_legendre_power(mu)
    if isinstance(c_exact, Fraction) and c_exact == profile.c:
        return PowerLaw(Fraction(1), mu)
    rf = float(profile.r)
    cf = float(profile.c)
    k = cf ** (1 / (rf + 1)) * (rf ** (-rf / (rf + 1)) + rf ** (1 / (rf + 1)))
    return PowerLaw(k, mu)


def _deviation_bound(i: int, target: Fraction) -> Fraction:
    # o(G) for any power-law target: the 1/i^2 branch wins for slow decay,
    # the G/i branch for fast decay
    return min(target / i, Fraction(1, i * i))


@dataclass(frozen=True, slots=True)
class ApproxCertificate:
    """Achieved deviations of a discrete approximation, node by node."""

    nodes: Tuple[Tuple[int, Fraction, Fraction, int], ...]  # (i, target, q_i, k)
    deviations: Tuple[Fraction, ...]
    bounds: Tuple[Fraction, ...]
    secant_deviations: Tuple[Fraction, ...]

    @property
    def max_deviation(self) -> Fraction:
        return max(self.deviations)

    @property
    def ok(self) -> bool:
        return all(d <= b for d, b in zip(self.deviations, self.bounds))


def discretely_approximate(
    targets: Sequence[Tuple[int, Fraction]],
    domain: CoefficientDomain,
) -> Tuple[Series, ApproxCertificate]:
    """Realize convex nonincreasing target nodes as a Newton polygon.

    Each node (i, G(i)) receives the nearest lattice exponent q_i of
    minimal denominator p^k satisfying
    ``|q_i - G(i)| <= min(G(i)/i, 1/i^2)``, which is o(G).  The
    certificate lists achieved node deviations and secant-slope deviations.
    An index that is not an integer >= 1 raises ValueError; increasing or
    non-convex targets are rejected with the violating triple.
    """
    nodes = [(_positive_integer(i, "target index"), _exact(g, "target values must be exact rationals"))
             for i, g in targets]
    if isinstance(domain, PadicDigits):
        raise ValueError("discrete approximation needs a polynomial coefficient domain")
    if not nodes:
        raise ValueError("need at least one target node")
    if any(b[0] <= a[0] for a, b in zip(nodes, nodes[1:])):
        raise ValueError("target indices must be strictly increasing")
    for i, g in nodes:
        if g <= 0:
            raise TargetError("target values must be positive", (i, g))
    for a, b in zip(nodes, nodes[1:]):
        if b[1] > a[1]:
            raise TargetError("targets must be nonincreasing", (a, b))
    for a, b, c3 in zip(nodes, nodes[1:], nodes[2:]):
        s1 = (b[1] - a[1]) / (b[0] - a[0])
        s2 = (c3[1] - b[1]) / (c3[0] - b[0])
        if s2 < s1:
            raise TargetError("targets must be convex", (a, b, c3))

    p = domain.p
    chosen: List[Tuple[int, Fraction, Fraction, int]] = []
    deviations: List[Fraction] = []
    bounds: List[Fraction] = []
    for i, g in nodes:
        bound = _deviation_bound(i, g)
        k = 0
        while True:
            pk = p**k
            m = (g * pk + Fraction(1, 2)) // 1
            q = Fraction(int(m), pk)
            if abs(q - g) <= bound:
                chosen.append((i, g, q, k))
                deviations.append(abs(q - g))
                bounds.append(bound)
                break
            k += 1

    secants: List[Fraction] = []
    for (i1, g1, q1, _), (i2, g2, q2, _) in zip(chosen, chosen[1:]):
        gap = i2 - i1
        secants.append(abs((q2 - q1) / gap - (g2 - g1) / gap))

    mode = Mode.FORMAL if isinstance(domain, PerfectPoly) else Mode.ARITHMETIC
    terms = [(Fraction(i), domain.x_power(q)) for i, _, q, _ in chosen]
    series = _assemble(domain, mode, terms, Fraction(nodes[-1][0] + 1))
    cert = ApproxCertificate(tuple(chosen), tuple(deviations), tuple(bounds), tuple(secants))
    return series, cert


def in_m(f: Series) -> bool:
    """Membership in the ideal of elements all of whose digits have positive valuation."""
    return all(f.domain._coeff_valuation(a) > 0 for _, a in f.terms)


RATIO_GRID: Tuple[Fraction, ...] = tuple(Fraction(1, 2**k) for k in range(4, 11))


@dataclass(frozen=True, slots=True)
class ChainReport:
    """All pairwise separations over an exponent grid, plus materializations.

    ``pairs`` holds (mu, lam, verdict, separated) for every mu < lam;
    ``membership`` the ideal-membership flag of each materialized element
    (its least digit valuation up to ``depth`` is positive);
    ``ratios`` the empirical Legendre ratio against the normalized power
    law on the sample grid (floats; reporting only), which depends on the
    depth only up to the window that :func:`chain_report` reads.
    """

    mu_grid: Tuple[Fraction, ...]
    depth: int
    pairs: Tuple[Tuple[Fraction, Fraction, str, bool], ...]
    membership: Tuple[Tuple[Fraction, bool], ...]
    ratios: Tuple[Tuple[Fraction, Tuple[Tuple[Fraction, float], ...]], ...]

    @property
    def all_separated(self) -> bool:
        return all(sep for _, _, _, sep in self.pairs)

    @property
    def all_in_ideal(self) -> bool:
        return all(member for _, member in self.membership)


def chain_report(
    mu_grid: Sequence,
    depth: int = 128,
    domain: Optional[CoefficientDomain] = None,
) -> ChainReport:
    """Separation witnesses for every pair of exponents in a strictly
    increasing grid inside (0, 1).

    For mu < lam the Legendre class of the mu-profile must be omega of
    ``s^lam`` and outside O^sup of it: an exact exponent comparison.  The
    Legendre ratios at s = 2^-4, ..., 2^-10 read the hull of the points
    ``(i, q_i)`` that can reach a sample, and ideal membership the least
    q_i, i <= depth: the same as :func:`newton_polygon` of
    :func:`materialize` gives (the digit ``x^(q_i)`` has valuation q_i).
    No series is built, so the report depends on the domain only through
    p: over a ``MixedPoly`` a depth at or past N raises no
    ``PrecisionLossError``.

    Each profile's stream is read in chunks of 1, 2, 4, ... indices up to
    a window end ``stop``, at first the depth + 1.  The rule keeps
    ``|q_j - tau_j| <= tau_j / (2^(G+1) j^2)`` (G = GUARD_BITS), and
    ``tau_j = c j^(-r)`` strictly decreases, so every j <= E has
    ``q_j >= L = q_E (1 - 2^-G)``, whether or not q_i is monotone.  After
    each chunk one read of one index gives q_E for E = stop - 1.  With
    ``s_min = min(RATIO_GRID)`` and V the least ``q_i + s_min i`` read so
    far, an unread j <= E lies past every index read, so at each sample
    s >= s_min, ``q_j + s j - (q_i + s i) >= (q_j + s_min j) - (q_i + s_min i)
    >= L + s_min j - V`` for the i attaining V.  That is positive from
    ``floor(V / s_min) - floor(L / s_min) + 1`` on, where the window now
    ends: no cut index attains or ties any sample.  ``floor(V / s_min)``
    is the least ``i + floor(q_i / s_min)``, so the bound stays in the
    rule's integers.  The window never passes index
    ``1 + floor(q_1 / s_min) <= 1 024`` (q_1 < 1), and closes far sooner
    (at most 75 indices read per profile, one-index reads included, on the
    benchmark's 23 exponents): the cost does not depend on the depth.
    The window's digits stay the rule's integers, on one denominator p^K
    (:class:`IndexPoints`), so no Fraction is built per digit; k never
    falls along the stream, so K is the last k.  Every
    ``m >= 2^GUARD_BITS > 0`` (k makes ``tau p^k >= 2^G i^2``), so every
    q_i is positive and each element lies in the ideal at any depth; the
    flag reads the window's last ordinate, positive like every digit.  One
    pass over the grid does it all.
    """
    depth = _positive_integer(depth, "depth")
    grid = [_exact(m, _EXPONENTS) for m in mu_grid]
    if any(not 0 < m < 1 for m in grid):
        raise ValueError("grid exponents must lie in (0, 1)")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be strictly increasing")
    dom = domain if domain is not None else PerfectPoly(2, "p-power")
    p, s_min = dom.p, min(RATIO_GRID)
    sn, sd = s_min.numerator, s_min.denominator

    pairs, membership, ratios = [], [], []
    for idx, mu in enumerate(grid):
        profile = ProfileElement.for_exponent(mu, dom)
        law = legendre_power_law(profile)
        for lam in grid[idx + 1 :]:
            verdict = classify(law, PowerLaw(Fraction(1), lam)).verdict
            pairs.append((mu, lam, verdict, verdict == "omega"))
        # read 1, 2, 4, ... digits at a time; after each chunk the window ends
        # at v - low + 1, for v the least i + floor(q_i / s_min) read so far
        # (never capped at the depth) and low = floor(q_E (1 - 2^-G) / s_min)
        # at E = stop - 1
        digits, n, stop, v = [], 1, depth + 1, math.inf
        while n < stop:
            chunk = profile._digits(1, n, min(stop, 2 * n))
            v = min(v, *(i + m * sd // (sn * p**k) for i, (m, k) in enumerate(chunk, n)))
            digits += chunk
            n += len(chunk)
            if n < stop:
                [(m, k)] = profile._digits(1, stop - 1, stop)
                low = m * ((1 << GUARD_BITS) - 1) * sd // (sn * p**k << GUARD_BITS)
                stop = min(stop, v - low + 1)
        K = digits[-1][1]  # k never falls: every q_i = m / p^k on the denominator p^K
        poly = lower_hull(IndexPoints([m * p ** (K - k) for m, k in digits], p**K))
        membership.append((mu, poly.y_last > 0))
        c_norm = float(law.coeff)
        rows = tuple((s, float(legendre_eval(poly, s)) / (c_norm * float(s) ** float(mu)))
                     for s in RATIO_GRID)
        ratios.append((mu, rows))

    return ChainReport(tuple(grid), depth, tuple(pairs), tuple(membership), tuple(ratios))


def supremum_example(
    s,
    depth: int,
    delta: Optional[Callable[[int], Fraction]] = None,
) -> Tuple[List[Fraction], Fraction]:
    """Term values of an element whose Gauss valuation is a strict infimum.

    The element ``sum_n x^(1 + 1/n) t^(2 - delta_n)`` has term values
    ``(1 + 1/n) + s (2 - delta_n)``, each strictly above the limit
    ``1 + 2 s`` as long as ``delta_n < 1/(n s)``; the running minima
    decrease toward the limit without reaching it.  Returns the term
    values for n = 1..depth together with the exact limit.
    """
    depth = _positive_integer(depth, "depth")
    s = _exact(s, "s must be an exact rational")
    if s <= 0:
        raise ValueError("s must be positive")
    rule = delta or (lambda n: Fraction(1, 2 * n))
    limit = 1 + 2 * s
    values: List[Fraction] = []
    prev_delta = None
    for n in range(1, depth + 1):
        d = _exact(rule(n), "delta values must be exact rationals")
        if d <= 0:
            raise ValueError(f"delta_{n} = {d} must be positive")
        if prev_delta is not None and d >= prev_delta:
            raise ValueError(f"delta sequence must strictly decrease at n={n}")
        if d >= Fraction(1, n) / s:
            raise ValueError(f"delta_{n} = {d} violates the bound 1/(n*s)")
        prev_delta = d
        values.append((1 + Fraction(1, n)) + s * (2 - d))
    return values, limit
