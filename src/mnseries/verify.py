"""Seeded property suites covering every library invariant.

A suite is one case: ``check(rng, case)`` draws a reproducible random
instance, checks one invariant family on it with exact arithmetic, and
yields the witness fields of each failure.  The runner does the rest, in
one place: all cases of a suite run in order on one ``random.Random``
seeded with ``f"{seed}:{suite}"``, each failure becomes the witness string
``case=K field=value ...``, and checks that draw nothing run last, as case
-1.  ``cases=`` in a report is the count asked for; a suite whose cases
cost more registers ``every`` and runs ``max(1, cases // every)`` of them.
Suites are deterministic: the same seed and case count always produce
byte-identical reports.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

from .domains import MixedPoly, PadicDigits, PerfectPoly, XPoly
from .grammar import _format_coefficient, format_series, parse_series
from .polygon import (
    legendre_eval,
    lower_hull,
    newton_polygon,
    sup_distance,
    verify_npf,
)
from .profiles import (
    ProfileElement,
    PowerLaw,
    chain_report,
    classify,
    deviation_within_bound,
    discretely_approximate,
    in_m,
    inverse_legendre_power,
    legendre_power_law,
    materialize,
    supremum_example,
)
from .series import (
    Mode,
    Series,
    _assemble,
    add,
    argnorm,
    bar_witness,
    box_witness,
    canonicalize,
    gauss_valuation,
    localize,
    mul,
    term_values,
)
from .values import INF, format_value

__all__ = ["SuiteResult", "SUITES", "run_suite", "run_all", "format_report", "suite_names"]

_S_POOL = [
    Fraction(1, 4),
    Fraction(1, 3),
    Fraction(1, 2),
    Fraction(2, 3),
    Fraction(1),
    Fraction(3, 2),
    Fraction(2),
    Fraction(3),
]


@dataclass(frozen=True, slots=True)
class SuiteResult:
    name: str
    cases: int
    failures: Tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


# ---------------------------------------------------------------------------
# generators


def _sample_s(rng: random.Random, n: int = 5) -> List[Fraction]:
    return rng.sample(_S_POOL, n)


def _rand_exponent(rng: random.Random, p: int, lattice: bool, max_num: int) -> Fraction:
    den = p ** rng.randrange(0, 3) if lattice else rng.choice([1, 2, 3, 4])
    return Fraction(rng.randrange(0, max_num * den + 1), den)


def _rand_poly_coeff(rng: random.Random, dom, hi: int, reduced: bool = False):
    """1-3 monomials with coefficients in [1, hi): the count first, then the
    exponent and the coefficient of each.  With ``reduced``, redraw until the
    result is a reduced digit (colliding exponents can merge into a multiple of p).
    """
    lattice = dom.denominators == "p-power"
    while True:
        monos = [
            (_rand_exponent(rng, dom.p, lattice, 4), rng.randrange(1, hi))
            for _ in range(rng.randrange(1, 4))
        ]
        out = dom.poly(monos)
        if not reduced or dom.is_reduced_digit(out):
            return out


def _rand_coeff(rng: random.Random, dom, reduced: bool = False):
    if isinstance(dom, PerfectPoly):
        return _rand_poly_coeff(rng, dom, dom.p)
    if isinstance(dom, MixedPoly):
        return _rand_poly_coeff(rng, dom, dom.p if reduced else dom.p**2, reduced)
    hi = dom.p if reduced else dom.p**3
    return rng.randrange(1, hi)


def _rand_series(
    rng: random.Random,
    dom,
    mode: Mode,
    max_terms: int = 5,
    nonzero: bool = False,
    integer_exponents: bool = False,
) -> Series:
    while True:
        n = rng.randrange(0, max_terms + 1)
        terms = []
        for _ in range(n):
            e = (
                Fraction(rng.randrange(0, 7))
                if integer_exponents
                else _rand_exponent(rng, dom.p, False, 6)
            )
            terms.append((e, _rand_coeff(rng, dom)))
        f = _assemble(dom, mode, terms, INF)  # domain elements on nonnegative Fractions
        if not (nonzero and f.is_zero):
            return f


def _formal_dom(rng: random.Random) -> PerfectPoly:
    return PerfectPoly(rng.choice([2, 3, 5]), "p-power")


def _padic_dom(rng: random.Random) -> PadicDigits:
    return PadicDigits(rng.choice([2, 3, 5]), 32)


def _mixed_dom(rng: random.Random) -> MixedPoly:
    return MixedPoly(rng.choice([2, 3, 5]), 32, "p-power")


def _setups(rng: random.Random):
    return [
        (_formal_dom(rng), Mode.FORMAL),
        (_padic_dom(rng), Mode.ARITHMETIC),
        (_mixed_dom(rng), Mode.ARITHMETIC),
    ]


def _literal(v, nested: bool = False) -> str:
    """A witness value in the CLI's literal form: a Fraction as ``num/den``, a
    coefficient as the series grammar prints it, a list or tuple element by
    element; anything else as ``str``, or inside a list or tuple as ``repr``."""
    if isinstance(v, Fraction):
        return format_value(v)
    if isinstance(v, XPoly):
        return _format_coefficient(v.monomials, parenthesize=False) or "0"
    if isinstance(v, list):
        return "[" + ", ".join(_literal(x, True) for x in v) + "]"
    if isinstance(v, tuple):
        return "(" + ", ".join(_literal(x, True) for x in v) + ("," if len(v) == 1 else "") + ")"
    return repr(v) if nested else str(v)


def _witness(case: int, **parts) -> str:
    body = " ".join(f"{k}={_literal(v)}" for k, v in parts.items())
    return f"case={case} {body}"


# ---------------------------------------------------------------------------
# suites

SUITES: Dict[str, Callable[[random.Random, int], List[str]]] = {}
Check = Iterable[Dict[str, object]]


def _suite(name: str, every: int = 1, fixed: Callable[[], Check] = tuple):
    """Register ``check(rng, case)``, which yields the witness fields of each
    failure of one case, as the suite ``name``: its cases run in order on the
    suite's one generator, ``every`` scales their count down, and the checks
    of ``fixed``, which draw nothing, report as case -1."""

    def register(check: Callable[[random.Random, int], Check]):
        def run(rng: random.Random, cases: int) -> List[str]:
            failures = [_witness(case, **fields)
                        for case in range(max(1, cases // every)) for fields in check(rng, case)]
            return failures + [_witness(-1, **fields) for fields in fixed()]

        SUITES[name] = run
        return check

    return register


@_suite("base-valuations")
def _suite_base_valuations(rng: random.Random, case: int) -> Check:
    """Base-valuation laws of the three coefficient domains."""
    p = rng.choice([2, 3, 5])
    perf = PerfectPoly(p, "p-power")
    a, b = _rand_coeff(rng, perf), _rand_coeff(rng, perf)
    if perf.coeff_valuation(perf.mul(a, b)) != perf.coeff_valuation(a) + perf.coeff_valuation(b):
        yield dict(law="perfect-multiplicative", a=a, b=b)
    padic = PadicDigits(p, 32)
    digit = rng.randrange(1, p)
    svals = [Fraction(k, 3) for k in range(1, 12)]
    if any(padic.base_valuation_at(digit, s) != padic.coeff_valuation(digit) for s in svals):
        yield dict(law="digit-constant-padic", digit=digit)
    mixed = MixedPoly(p, 32, "p-power")
    md = _rand_coeff(rng, mixed, reduced=True)
    if any(mixed.base_valuation_at(md, s) != mixed.coeff_valuation(md) for s in svals):
        yield dict(law="digit-constant-mixed", digit=md)
    raw = rng.randrange(1, p**3)
    s = rng.choice(_S_POOL)
    if padic.base_valuation_at(p * raw, s) != s + padic.base_valuation_at(raw, s):
        yield dict(law="padic-shift", a=raw, s=s)
    ma, mb = _rand_coeff(rng, mixed), _rand_coeff(rng, mixed)
    res = mixed.residue_domain
    hom_add = mixed.reduce_mod_p(mixed.add(ma, mb)) == res.add(
        mixed.reduce_mod_p(ma), mixed.reduce_mod_p(mb)
    )
    hom_mul = mixed.reduce_mod_p(mixed.mul(ma, mb)) == res.mul(
        mixed.reduce_mod_p(ma), mixed.reduce_mod_p(mb)
    )
    if not (hom_add and hom_mul):
        yield dict(law="reduction-homomorphism", a=ma, b=mb)


def _check_multiplicative(rng: random.Random, dom, mode: Mode) -> Check:
    f = _rand_series(rng, dom, mode)
    g = _rand_series(rng, dom, mode)
    fg, _ = mul(f, g)
    for s in _sample_s(rng):
        vf, ef = gauss_valuation(f, s)
        vg, eg = gauss_valuation(g, s)
        vfg, _ = gauss_valuation(fg, s)
        if ef and eg and vfg != vf + vg:
            yield dict(f=format_series(f), g=format_series(g), s=s,
                       got=format_value(vfg), expected=format_value(vf + vg))


@_suite("multiplicativity")
def _suite_multiplicativity(rng: random.Random, case: int) -> Check:
    """Gauss valuations are multiplicative (formal and carried modes)."""
    yield from _check_multiplicative(rng, _formal_dom(rng), Mode.FORMAL)
    yield from _check_multiplicative(rng, _padic_dom(rng), Mode.ARITHMETIC)


@_suite("triangle")
def _suite_triangle(rng: random.Random, case: int) -> Check:
    """Strong triangle inequality, with equality at distinct valuations."""
    for dom, mode in _setups(rng):
        f = _rand_series(rng, dom, mode)
        g = _rand_series(rng, dom, mode)
        h = add(f, g)
        for s in _sample_s(rng, 3):
            vf, _ = gauss_valuation(f, s)
            vg, _ = gauss_valuation(g, s)
            vh, _ = gauss_valuation(h, s)
            lower = min(vf, vg)
            if not vh >= lower:
                yield dict(f=format_series(f), g=format_series(g), s=s, kind="bound")
            elif vf != vg and vh != lower:
                yield dict(f=format_series(f), g=format_series(g), s=s, kind="equality")


@_suite("submultiplicativity")
def _suite_submultiplicativity(rng: random.Random, case: int) -> Check:
    """v(fg) >= v(f) + v(g), asserted even where equality is not."""
    for dom, mode in _setups(rng):
        f = _rand_series(rng, dom, mode)
        g = _rand_series(rng, dom, mode)
        fg, _ = mul(f, g)
        for s in _sample_s(rng, 3):
            vf, ef = gauss_valuation(f, s)
            vg, eg = gauss_valuation(g, s)
            vfg, _ = gauss_valuation(fg, s)
            if ef and eg and not vfg >= vf + vg:
                yield dict(dom=dom.kind, f=format_series(f), g=format_series(g), s=s)


@_suite("support")
def _suite_support(rng: random.Random, case: int) -> Check:
    """Product support sits in the sumset (shifted by N in carried mode)."""
    for dom, mode in _setups(rng):
        f = _rand_series(rng, dom, mode, max_terms=4)
        g = _rand_series(rng, dom, mode, max_terms=4)
        fg, trace = mul(f, g)
        sums = {i + j for i in f.support for j in g.support}
        for k in fg.support:
            if mode is Mode.FORMAL:
                ok = k in sums
            else:
                ok = any(k >= s0 and (k - s0).denominator == 1 for s0 in sums)
            if not ok:
                yield dict(k=k, f=format_series(f), g=format_series(g))
            if mode is Mode.ARITHMETIC and fg.support and not trace.contributors_to(k):
                yield dict(k=k, kind="no-contributors")
        if fg.support:
            top = fg.support[-1]
            if len(trace.pairs_up_to(top)) > len(f.support) * len(g.support):
                yield dict(kind="trace-overcount")


@_suite("canonicalization")
def _suite_canonicalization(rng: random.Random, case: int) -> Check:
    """Canonical form is idempotent and matches integer base-p arithmetic."""
    dom = _padic_dom(rng)
    p = dom.p
    f = _rand_series(rng, dom, Mode.ARITHMETIC)
    if canonicalize(f) != f:
        yield dict(kind="idempotence", f=format_series(f))
    a = _rand_series(rng, dom, Mode.ARITHMETIC, integer_exponents=True)
    b = _rand_series(rng, dom, Mode.ARITHMETIC, integer_exponents=True)
    prod, _ = mul(a, b)
    int_a = sum(c * p ** int(e) for e, c in a.terms)
    int_b = sum(c * p ** int(e) for e, c in b.terms)
    expected = []
    n, idx = int_a * int_b, 0
    while n:
        n, d = divmod(n, p)
        if d:
            expected.append((Fraction(idx), d))
        idx += 1
    if prod.terms != tuple(expected):
        yield dict(kind="integer-oracle", a=format_series(a), b=format_series(b))


@_suite("concavity")
def _suite_concavity(rng: random.Random, case: int) -> Check:
    """s -> v_s(f) is concave (a finite min of affine functions of s)."""
    for dom, mode in _setups(rng):
        f = _rand_series(rng, dom, mode, nonzero=True)
        s1, s2, s3 = sorted(rng.sample(_S_POOL, 3))
        v1, _ = gauss_valuation(f, s1)
        v2, _ = gauss_valuation(f, s2)
        v3, _ = gauss_valuation(f, s3)
        chord = (v1 * (s3 - s2) + v3 * (s2 - s1)) / (s3 - s1)
        if not v2 >= chord:
            yield dict(f=format_series(f), s=(s1, s2, s3))


@_suite("localization")
def _suite_localization(rng: random.Random, case: int) -> Check:
    """The localized prediction equals the product valuation."""
    dom, mode = rng.choice(_setups(rng))
    f = _rand_series(rng, dom, mode, nonzero=True)
    g = _rand_series(rng, dom, mode, nonzero=True)
    s = rng.choice(_S_POOL)
    (f_loc, g_loc), prediction = localize(f, g, s)
    fg, _ = mul(f, g)
    actual, _ = gauss_valuation(fg, s)
    if prediction != actual:
        yield dict(f=format_series(f), g=format_series(g), s=s,
                   predicted=format_value(prediction), got=format_value(actual))
    if f_loc.is_zero or g_loc.is_zero:
        yield dict(kind="empty-localization", s=s)


@_suite("witnesses")
def _suite_witnesses(rng: random.Random, case: int) -> Check:
    """Box and bar witnesses certify genuinely empty windows."""
    dom, mode = rng.choice(_setups(rng))
    f = _rand_series(rng, dom, mode, nonzero=True)
    s = rng.choice(_S_POOL)
    a_star = argnorm(f, s)
    v0, _ = gauss_valuation(f, s)
    eps_a, delta_a = box_witness(f, s)
    for i, v in term_values(f, s):
        if a_star < i < a_star + eps_a and v <= v0 + delta_a:
            yield dict(kind="box", f=format_series(f), s=s, i=i)
    eps = rng.choice([Fraction(1, 4), Fraction(1, 2), Fraction(1)])
    delta_b = bar_witness(f, s, eps)
    if not delta_b > 0:
        yield dict(kind="bar-positivity", f=format_series(f), s=s)
    for i, v in term_values(f, s):
        if i < a_star - eps and v <= v0 + delta_b:
            yield dict(kind="bar", f=format_series(f), s=s, i=i)


@_suite("commutation")
def _suite_commutation(rng: random.Random, case: int) -> Check:
    """Legendre transform of the polygon reproduces the Gauss valuation."""
    for dom, mode in _setups(rng):
        f = _rand_series(rng, dom, mode, nonzero=True)
        poly = newton_polygon(f)
        for s in _sample_s(rng):
            lhs = legendre_eval(poly, s)
            rhs, _ = gauss_valuation(f, s)
            if lhs != rhs:
                yield dict(f=format_series(f), s=s,
                           legendre=format_value(lhs), gauss=format_value(rhs))


def _rand_polygon_points(rng: random.Random):
    xs = sorted(rng.sample(range(0, 12), 5))
    return [(Fraction(x), Fraction(rng.randrange(0, 12), rng.choice([1, 2, 3]))) for x in xs]


@_suite("hull-stability")
def _suite_hull_stability(rng: random.Random, case: int) -> Check:
    """Perturbing node values by <= eps moves the hull by <= eps."""
    pts = _rand_polygon_points(rng)
    eps = Fraction(rng.randrange(0, 5), 4)
    perturbed = []
    for x, y in pts:
        shift = Fraction(rng.randrange(-4, 5), 4) * eps / 4
        perturbed.append((x, max(Fraction(0), y + shift)))
    delta = max(abs(y1 - y2) for (_, y1), (_, y2) in zip(pts, perturbed))
    d = sup_distance(lower_hull(pts), lower_hull(perturbed))
    if d > delta:
        yield dict(pts=pts, perturbed=perturbed, d=d, eps=delta)


@_suite("legendre-monotonicity")
def _suite_legendre_monotonicity(rng: random.Random, case: int) -> Check:
    """Pointwise-dominated polygons have dominated Legendre transforms."""
    pts = _rand_polygon_points(rng)
    raised = [(x, y + Fraction(rng.randrange(0, 5), 2)) for x, y in pts]
    F, G = lower_hull(pts), lower_hull(raised)
    for s in _sample_s(rng, 3):
        if not legendre_eval(F, s) <= legendre_eval(G, s):
            yield dict(pts=pts, raised=raised, s=s)


@_suite("legendre-translate")
def _suite_legendre_translate(rng: random.Random, case: int) -> Check:
    """Translating a polygon by (dx, dy) shifts its transform by dy + s*dx."""
    F = lower_hull(_rand_polygon_points(rng))
    dx = Fraction(rng.randrange(0, 9), 2)
    dy = Fraction(rng.randrange(0, 9), 2)
    G = F.translate(dx, dy)
    for s in _sample_s(rng, 3):
        if legendre_eval(G, s) != legendre_eval(F, s) + dy + s * dx:
            yield dict(dx=dx, dy=dy, s=s)


@_suite("minkowski")
def _suite_minkowski(rng: random.Random, case: int) -> Check:
    """Legendre side of the product polygon is the sum of the factors'."""
    dom = _formal_dom(rng)
    f = _rand_series(rng, dom, Mode.FORMAL, nonzero=True)
    g = _rand_series(rng, dom, Mode.FORMAL, nonzero=True)
    fg, _ = mul(f, g)
    if fg.is_zero:
        return
    Ff, Fg, Fp = newton_polygon(f), newton_polygon(g), newton_polygon(fg)
    for s in _sample_s(rng, 3):
        if legendre_eval(Fp, s) != legendre_eval(Ff, s) + legendre_eval(Fg, s):
            yield dict(f=format_series(f), g=format_series(g), s=s)


@_suite("npf-diagram")
def _suite_npf_diagram(rng: random.Random, case: int) -> Check:
    """Full diagram report passes on random pairs."""
    dom, mode = rng.choice([(_formal_dom(rng), Mode.FORMAL), (_padic_dom(rng), Mode.ARITHMETIC)])
    f = _rand_series(rng, dom, mode)
    g = _rand_series(rng, dom, mode)
    report = verify_npf(f, g, _sample_s(rng, 3))
    if not report.ok:
        yield dict(f=format_series(f), g=format_series(g), witnesses=report.witnesses)


@_suite("profile-roundtrip", every=10)
def _suite_profile_roundtrip(rng: random.Random, case: int) -> Check:
    """mu -> (c, r) -> mu round-trips exactly."""
    den = rng.randrange(2, 9)
    num = rng.randrange(1, den)
    mu = Fraction(num, den)
    c, r = inverse_legendre_power(mu)
    if r != mu / (1 - mu) or r / (r + 1) != mu:
        yield dict(mu=mu, r=r)
        return
    profile = ProfileElement.for_exponent(mu, PerfectPoly(2, "p-power"))
    if legendre_power_law(profile).exponent != mu:
        yield dict(mu=mu, kind="law-exponent")


@_suite("deviation", every=10)
def _suite_deviation(rng: random.Random, case: int) -> Check:
    """Profile digits and discrete approximations respect their bounds."""
    den = rng.randrange(2, 9)
    mu = Fraction(rng.randrange(1, den), den)
    p = rng.choice([2, 3, 5])
    profile = ProfileElement.for_exponent(mu, PerfectPoly(p, "p-power"))
    for i in rng.sample(range(1, 41), 6):
        q = profile.digit_exponent(i)
        if not deviation_within_bound(profile, i, q):
            yield dict(mu=mu, i=i, q=q)
    c0 = Fraction(rng.randrange(1, 8), rng.randrange(1, 5))
    targets = [(i, c0 / i) for i in range(1, 9)]
    dom = PerfectPoly(p, "p-power")
    series, cert = discretely_approximate(targets, dom)
    if not cert.ok:
        yield dict(kind="certificate", c0=c0, p=p)
    hull_t = lower_hull([(Fraction(i), g) for i, g in targets])
    hull_q = newton_polygon(series)
    if sup_distance(hull_t, hull_q) > cert.max_deviation:
        yield dict(kind="hull-stability", c0=c0, p=p)
    for k, sd in enumerate(cert.secant_deviations):
        if sd > cert.deviations[k] + cert.deviations[k + 1]:
            yield dict(kind="secant", c0=c0, p=p, k=k)


_COMPOSE = {("omega", "omega"): "omega", ("o", "o"): "o",
            ("theta", "omega"): "omega", ("omega", "theta"): "omega",
            ("theta", "o"): "o", ("o", "theta"): "o",
            ("theta", "theta"): "theta"}


@_suite("classifier")
def _suite_classifier(rng: random.Random, case: int) -> Check:
    """Verdicts compose like the order on exponents."""
    laws = [
        PowerLaw(Fraction(1), Fraction(rng.randrange(0, 13), rng.choice([1, 2, 4])))
        for _ in range(3)
    ]
    fg = classify(laws[0], laws[1]).verdict
    gh = classify(laws[1], laws[2]).verdict
    fh = classify(laws[0], laws[2]).verdict
    expected = _COMPOSE.get((fg, gh))
    if expected is not None and fh != expected:
        yield dict(exps=[l.exponent for l in laws], fg=fg, gh=gh, fh=fh)


def _chain_singleton() -> Check:
    if chain_report([Fraction(1, 2)], depth=4).pairs:
        yield dict(kind="singleton-grid")


@_suite("chain", every=40, fixed=_chain_singleton)
def _suite_chain(rng: random.Random, case: int) -> Check:
    """Strictly increasing grids separate completely; the ideal holds; each
    Legendre ratio is the least term value of the materialized element over
    its normalized power law."""
    den = rng.choice([8, 12, 16])
    nums = sorted(rng.sample(range(1, den), rng.randrange(2, 5)))
    grid = [Fraction(n, den) for n in nums]
    depth, dom = 32, PerfectPoly(2, "p-power")
    report = chain_report(grid, depth=depth)
    if not report.all_separated:
        yield dict(grid=grid, kind="separation")
    if not report.all_in_ideal:
        yield dict(grid=grid, kind="ideal-membership")
    if len(report.pairs) != len(grid) * (len(grid) - 1) // 2:
        yield dict(grid=grid, kind="pair-count")
    for mu, row in report.ratios:
        profile = ProfileElement.for_exponent(mu, dom)
        f, norm = materialize(profile, depth), float(legendre_power_law(profile).coeff)
        for s, ratio in row:
            least, _ = gauss_valuation(f, s)
            if ratio != float(least) / (norm * float(s) ** float(mu)):
                yield dict(grid=grid, kind="ratio", mu=mu, s=s)


def _unit_digit() -> Check:
    if in_m(_assemble(PadicDigits(2, 32), Mode.ARITHMETIC, [(Fraction(1), 1)], INF)):
        yield dict(kind="unit-digit")


@_suite("ideal", fixed=_unit_digit)
def _suite_ideal(rng: random.Random, case: int) -> Check:
    """Positive-valuation digits are closed under sum and product."""
    if case % 3 == 2:
        dom, mode = _mixed_dom(rng), Mode.ARITHMETIC
    else:
        dom, mode = _formal_dom(rng), Mode.FORMAL

    def positive_series():
        terms = []
        for _ in range(rng.randrange(1, 5)):
            e = _rand_exponent(rng, dom.p, False, 5)
            v = _rand_exponent(rng, dom.p, True, 4) + Fraction(1, dom.p)
            terms.append((e, dom.x_power(v, rng.randrange(1, dom.p))))
        return _assemble(dom, mode, terms, INF)

    f, g = positive_series(), positive_series()
    h = _rand_series(rng, dom, mode)
    if not (in_m(f) and in_m(g)):
        yield dict(kind="generator")
        return
    if not in_m(add(f, g)):
        yield dict(kind="sum", f=format_series(f), g=format_series(g))
    prod, _ = mul(f, h)
    if not in_m(prod):
        yield dict(kind="product", f=format_series(f), h=format_series(h))


@_suite("supremum", every=5)
def _suite_supremum(rng: random.Random, case: int) -> Check:
    """Strict-infimum example: values decrease strictly toward the limit."""
    s = rng.choice([Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(3, 2)])
    depth = rng.randrange(5, 60)
    values, limit = supremum_example(s, depth)
    if limit != 1 + 2 * s:
        yield dict(s=s, kind="limit")
    if any(v <= limit for v in values):
        yield dict(s=s, kind="above-limit")
    if any(b >= a for a, b in zip(values, values[1:])):
        yield dict(s=s, kind="strict-decrease")


@_suite("roundtrip")
def _suite_roundtrip(rng: random.Random, case: int) -> Check:
    """print -> parse reproduces the series exactly."""
    for dom, mode in _setups(rng):
        f = _rand_series(rng, dom, mode)
        if rng.random() < 0.3:
            f = f.with_prec(Fraction(rng.randrange(4, 12)))
        text = format_series(f)
        g = parse_series(text, dom, mode)
        if g != f:
            yield dict(text=text, reparsed=format_series(g))


# ---------------------------------------------------------------------------
# runner


def suite_names() -> List[str]:
    return list(SUITES)


def run_suite(name: str, cases: int, seed: int) -> SuiteResult:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; known: {', '.join(SUITES)}")
    if not isinstance(cases, int) or isinstance(cases, bool) or cases < 1:
        raise ValueError(f"the case count must be an int >= 1, got {cases!r}")
    rng = random.Random(f"{seed}:{name}")
    failures = SUITES[name](rng, cases)
    return SuiteResult(name, cases, tuple(failures))


def run_all(cases: int, seed: int) -> List[SuiteResult]:
    return [run_suite(name, cases, seed) for name in SUITES]


def format_report(results: Sequence[SuiteResult]) -> str:
    lines = []
    for r in results:
        status = "pass" if r.passed else "FAIL"
        lines.append(f"suite={r.name} cases={r.cases} failures={len(r.failures)} status={status}")
        for w in r.failures[:5]:
            lines.append(f"  witness: {w}")
        if len(r.failures) > 5:
            lines.append(f"  ... {len(r.failures) - 5} more")
    total_fail = sum(len(r.failures) for r in results)
    overall = "pass" if total_fail == 0 else "FAIL"
    lines.append(f"total suites={len(results)} failures={total_fail} status={overall}")
    return "\n".join(lines) + "\n"
