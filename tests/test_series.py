"""Series arithmetic, carrying, Gauss valuations, and witness operations."""

import random
from dataclasses import fields
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mnseries import (
    INF,
    DomainError,
    MixedPoly,
    Mode,
    ModeMismatchError,
    PadicDigits,
    PerfectPoly,
    PrecisionLossError,
    Series,
    XPoly,
    ZeroSeriesError,
    add,
    argnorm,
    bar_witness,
    box_witness,
    canonicalize,
    gauss_valuation,
    localize,
    mul,
    restrict,
    term_values,
)

P2 = PadicDigits(2)
P3F = PerfectPoly(3)


def base_p_expansion(n: int, p: int):
    """Independent oracle: digits of n in base p as (index, digit) pairs."""
    out, idx = [], 0
    while n:
        n, d = divmod(n, p)
        if d:
            out.append((Q(idx), d))
        idx += 1
    return tuple(out)


def naive_formal_product(f, g, p):
    """Independent oracle: dict-based convolution over F_p[x^Q]."""
    acc = {}
    for i, a in f.terms:
        for j, b in g.terms:
            for ea, ca in a.monomials:
                for eb, cb in b.monomials:
                    key = (i + j, ea + eb)
                    acc[key] = (acc.get(key, 0) + ca * cb) % p
    out = {}
    for (k, e), c in acc.items():
        if c:
            out.setdefault(k, []).append((e, c))
    return {k: tuple(sorted(v)) for k, v in out.items()}


# --- construction ---------------------------------------------------------


def test_terms_merge_and_cancel():
    f = Series.make(P3F, Mode.FORMAL, [(Q(1), P3F.x_power(1)), (Q(1), P3F.x_power(1, 2))])
    assert f.is_zero


def test_frontier_absorbs_terms():
    f = Series.make(P3F, Mode.FORMAL, [(Q(0), P3F.x_power(1)), (Q(3), P3F.one())], prec=Q(2))
    assert f.support == (Q(0),)
    assert f.prec == Q(2)


def test_arithmetic_over_perfect_rejected():
    with pytest.raises(ModeMismatchError):
        Series.make(P3F, Mode.ARITHMETIC, [])


def test_arbitrary_representatives_reduce_mod_modulus():
    dom = PadicDigits(2, 4)
    f = Series.make(dom, Mode.ARITHMETIC, [(Q(0), 5000)])  # 5000 = 8 mod 16
    assert f.terms == ((Q(3), 1),)
    g = Series.make(dom, Mode.ARITHMETIC, [(Q(0), -3)])  # 13 = 1 + 4 + 8
    assert g.support == (Q(0), Q(2), Q(3))


def test_mode_mismatch_rejected():
    f = Series.make(P2, Mode.ARITHMETIC, [(Q(0), 1)])
    g = Series.make(PadicDigits(3), Mode.ARITHMETIC, [(Q(0), 1)])
    with pytest.raises(ModeMismatchError):
        add(f, g)


# --- the construction boundary ------------------------------------------


def test_make_rejects_malformed_input():
    with pytest.raises(ValueError, match="nonnegative"):
        Series.make(P2, Mode.ARITHMETIC, [(Q(-1), 1)])
    with pytest.raises(ValueError, match="nonnegative"):
        Series.make(P2, Mode.ARITHMETIC, [(Q(0), 1)], prec=Q(-1))
    dom = PerfectPoly(2, "p-power")
    with pytest.raises(DomainError, match="not a power of p"):
        Series.make(dom, Mode.FORMAL, [(Q(1), XPoly(((Q(1, 3), 1),)))], prec=Q(3))
    with pytest.raises(DomainError, match="cannot coerce str"):
        Series.make(P2, Mode.ARITHMETIC, [(Q(0), "1")])
    with pytest.raises(ValueError, match="nonnegative"):
        Series.make(P2, Mode.ARITHMETIC, [(Q(0), 1)]).with_prec(-1)


@pytest.mark.parametrize("bad", [0.1, 0.5, 2.0, True, False])
def test_bool_and_float_exponents_and_gauss_params_are_rejected(bad):
    # a binary float is a valid 2-power lattice point and True passes as 1,
    # so each used to be accepted silently
    dom = PerfectPoly(2, "p-power")
    f = Series.make(dom, Mode.FORMAL, [(Q(1, 2), dom.one())])
    with pytest.raises(ValueError, match="exact rational"):
        Series.make(dom, Mode.FORMAL, [(bad, dom.one())])
    with pytest.raises(ValueError, match="exact rational"):
        Series.make(dom, Mode.FORMAL, [(Q(0), dom.one())], prec=bad)
    with pytest.raises(ValueError, match="exact rational"):
        dom.x_power(bad)
    with pytest.raises(ValueError, match="exact rational"):
        f.with_prec(bad)
    for valuation in (gauss_valuation, argnorm, term_values):
        with pytest.raises(ValueError, match="exact rational"):
            valuation(f, bad)
    with pytest.raises(ValueError, match="exact rational"):
        f.coefficient(bad)
    with pytest.raises(ValueError, match="exact rational"):
        restrict(f, bad, Q(2), INF, 1)
    with pytest.raises(ValueError, match="exact rational"):
        restrict(f, 0, bad, INF, 1)
    with pytest.raises(ValueError, match="exact rational"):
        bar_witness(f, 1, bad)
    # the exact spellings of the same values stay accepted
    assert Series.make(dom, Mode.FORMAL, [(1, dom.one())], prec=2).support == (Q(1),)
    assert gauss_valuation(f, "1/2") == (Q(1, 4), True)
    assert f.coefficient(Q(1, 2)) == dom.one() and restrict(f, 0, INF, INF, 1) == f


@pytest.mark.parametrize("dom, mode, coeff", [
    (PadicDigits(2), Mode.ARITHMETIC, "junk"),
    (PerfectPoly(2, "p-power"), Mode.FORMAL, XPoly(((Q(1, 3), 1),))),
])
def test_make_checks_terms_past_the_frontier(dom, mode, coeff):
    with pytest.raises(DomainError):
        Series.make(dom, mode, [(5, coeff)], prec=3)


# --- add ------------------------------------------------------------------


def test_add_carries_one_plus_one():
    one = Series.make(P2, Mode.ARITHMETIC, [(Q(0), 1)])
    assert add(one, one).terms == ((Q(1), 1),)


def test_add_preserves_min_precision():
    f = Series.make(P3F, Mode.FORMAL, [(Q(0), P3F.x_power(1))], prec=Q(2))
    g = Series.make(P3F, Mode.FORMAL, [(Q(3), P3F.one())])
    h = add(f, g)
    assert h.prec == Q(2)
    assert h.support == (Q(0),)


# --- mul ------------------------------------------------------------------


def test_mul_formal_cross_terms_cancel():
    f = Series.make(P3F, Mode.FORMAL, [(Q(0), P3F.x_power(1)), (Q(1), P3F.one())])
    g = Series.make(P3F, Mode.FORMAL, [(Q(0), P3F.x_power(1)), (Q(1), P3F.from_int(2))])
    prod, trace = mul(f, g)
    assert prod.terms == (
        (Q(0), P3F.x_power(2)),
        (Q(2), P3F.from_int(2)),
    )
    assert set(trace.entries) == {
        (Q(0), Q(0), Q(0)),
        (Q(0), Q(1), Q(1)),
        (Q(1), Q(0), Q(1)),
        (Q(1), Q(1), Q(2)),
    }
    # index 1 cancelled in the product, but both of its pairs fed it
    assert trace.contributors_to(Q(1)) == ((Q(0), Q(1)), (Q(1), Q(0)))


def test_mul_matches_naive_convolution_oracle():
    rng = random.Random(5)
    dom = PerfectPoly(3, "p-power")
    for _ in range(100):
        def rnd():
            return Series.make(
                dom,
                Mode.FORMAL,
                [
                    (Q(rng.randrange(0, 9), 3), dom.x_power(Q(rng.randrange(0, 9), 3), rng.randrange(1, 3)))
                    for _ in range(rng.randrange(0, 4))
                ],
            )

        f, g = rnd(), rnd()
        prod, _ = mul(f, g)
        expected = naive_formal_product(f, g, 3)
        got = {i: a.monomials for i, a in prod.terms}
        assert got == expected


def test_mul_arithmetic_integer_oracle():
    one_plus_p = Series.make(P2, Mode.ARITHMETIC, [(Q(0), 1), (Q(1), 1)])
    sq, _ = mul(one_plus_p, one_plus_p)
    assert sq.terms == base_p_expansion(9, 2)  # 3^2 = 9 = 1 + 8


def test_mul_arithmetic_half_integer_carry():
    f = Series.make(P2, Mode.ARITHMETIC, [(Q(0), 1), (Q(1, 2), 1)])
    sq, _ = mul(f, f)
    assert sq.terms == ((Q(0), 1), (Q(1), 1), (Q(3, 2), 1))


def test_mul_precision_rule():
    # f = x + O(t^2), g = t: prec = min(2 + 1, oo + 0) = 3
    f = Series.make(P3F, Mode.FORMAL, [(Q(0), P3F.x_power(1))], prec=Q(2))
    g = Series.make(P3F, Mode.FORMAL, [(Q(1), P3F.one())])
    prod, _ = mul(f, g)
    assert prod.prec == Q(3)
    zero_trunc = Series.make(P3F, Mode.FORMAL, [], prec=Q(2))
    prod2, _ = mul(zero_trunc, g)
    assert prod2.is_zero and prod2.prec == Q(3)


def test_mul_carry_trace_points_into_cosets():
    f = Series.make(P2, Mode.ARITHMETIC, [(Q(1, 2), 3), (Q(0), 1)])
    g = Series.make(P2, Mode.ARITHMETIC, [(Q(0), 1)])
    prod, trace = mul(f, g)
    for i, j, k in trace.entries:
        assert k >= i + j
        assert (k - (i + j)).denominator == 1
    for k in prod.support:
        assert trace.contributors_to(k)


def eager_trace_entries(f, g, prod):
    """Reference trace, built eagerly pair by pair as ``mul`` once did."""
    prec = min(f.prec + g.order_bound(), g.prec + f.order_bound())
    pairs = [(i, j) for i in f.support for j in g.support if i + j < prec]
    if f.mode is Mode.FORMAL:
        return tuple((i, j, i + j) for i, j in pairs)
    entries = []
    for i, j in pairs:
        lo = i + j
        for k in prod.support:
            if k >= lo and (k - lo).denominator == 1:
                entries.append((i, j, k))
    return tuple(entries)


def _random_factor(rng, dom, mode):
    denominators = (1, dom.p, dom.p**2)
    terms = []
    for _ in range(rng.randrange(0, 6)):
        e = Q(rng.randrange(0, 10), rng.choice(denominators))
        if isinstance(dom, PadicDigits):
            coeff = rng.randrange(1, 50)
        else:
            xe = Q(rng.randrange(0, 4), rng.choice(denominators))
            coeff = dom.x_power(xe, rng.randrange(1, 50))
        terms.append((e, coeff))
    prec = Q(rng.randrange(4, 12), rng.choice(denominators)) if rng.random() < 0.3 else INF
    return Series.make(dom, mode, terms, prec)


@pytest.mark.parametrize(
    "dom,mode",
    [
        (PerfectPoly(3, "p-power"), Mode.FORMAL),
        (PadicDigits(2), Mode.ARITHMETIC),
        (PadicDigits(3), Mode.ARITHMETIC),
        (MixedPoly(2, 32, "p-power"), Mode.ARITHMETIC),
        (MixedPoly(3, 32, "any"), Mode.ARITHMETIC),
    ],
)
def test_derived_trace_matches_eager_reference(dom, mode):
    rng = random.Random(f"trace:{dom.kind}:{dom.p}")
    for _ in range(60):
        f, g = _random_factor(rng, dom, mode), _random_factor(rng, dom, mode)
        prod, trace = mul(f, g)
        assert "entries" not in vars(trace)  # mul itself builds no entries
        assert set(vars(trace)) == {fld.name for fld in fields(trace)}  # nor their index
        expected = eager_trace_entries(f, g, prod)
        assert trace.entries == expected
        assert trace.entries is trace.entries  # derived once, then kept
        outside = max(prod.support, default=Q(0)) + Q(1, 7)
        # int keys name the integer indices too
        for k in prod.support + (outside,) + tuple(range(int(outside) + 2)):
            assert trace.contributors_to(k) == tuple((i, j) for i, j, kk in expected if kk == k)
        before = min(prod.support, default=Q(0)) - Q(1, 7)
        for top in prod.support + (before, outside):
            below = {(i, j) for i, j, kk in expected if kk <= top}
            assert trace.pairs_up_to(top) == tuple(sorted(below))


_FACTOR_DOMAINS = [
    (PerfectPoly(3, "p-power"), Mode.FORMAL),
    (PadicDigits(2), Mode.ARITHMETIC),
    (PadicDigits(3), Mode.FORMAL),
    (MixedPoly(2, 32, "p-power"), Mode.ARITHMETIC),
]


@pytest.mark.parametrize("dom, mode", _FACTOR_DOMAINS)
def test_mul_and_add_match_make_on_the_same_terms(dom, mode):
    rng = random.Random(f"make-differential:{dom}:{mode.value}")
    for _ in range(40):
        f, g = _random_factor(rng, dom, mode), _random_factor(rng, dom, mode)
        prec = min(f.prec + g.order_bound(), g.prec + f.order_bound())
        pairs = [(i + j, dom.mul(a, b)) for i, a in f.terms for j, b in g.terms]
        assert mul(f, g)[0] == Series.make(dom, mode, pairs, prec)
        assert add(f, g) == Series.make(dom, mode, f.terms + g.terms, min(f.prec, g.prec))


@pytest.mark.parametrize("dom, mode", _FACTOR_DOMAINS)
def test_library_built_terms_are_not_coerced_again(dom, mode, monkeypatch):
    rng = random.Random(f"no-coerce:{dom}:{mode.value}")
    f, g = _random_factor(rng, dom, mode), _random_factor(rng, dom, mode)
    while f.is_zero or g.is_zero:  # localize needs nonzero factors
        f, g = _random_factor(rng, dom, mode), _random_factor(rng, dom, mode)
    coerce, calls = type(dom).coerce, []
    monkeypatch.setattr(type(dom), "coerce", lambda self, a: calls.append(a) or coerce(self, a))
    mul(f, g)
    add(f, g)
    f.with_prec(Q(2))
    restrict(f, 0, Q(6), gauss_valuation(f, 1)[0] + 2, 1)
    localize(f, g, 1)
    assert calls == []
    Series.make(dom, mode, f.terms, f.prec)  # the patch does see the boundary
    assert len(calls) == len(f.terms)


# --- canonicalize ---------------------------------------------------------


def test_canonicalize_spec_cosets():
    f = Series(P2, Mode.ARITHMETIC, ((Q(0), 1), (Q(1, 2), 3)), INF)
    g = canonicalize(f)
    assert g.terms == ((Q(0), 1), (Q(1, 2), 1), (Q(3, 2), 1))


def test_canonicalize_single_carry():
    f = Series(PadicDigits(3), Mode.ARITHMETIC, ((Q(0), 3),), INF)
    assert canonicalize(f).terms == ((Q(1), 1),)


def test_canonicalize_idempotent():
    rng = random.Random(3)
    for _ in range(100):
        dom = PadicDigits(rng.choice([2, 3, 5]))
        f = Series.make(
            dom,
            Mode.ARITHMETIC,
            [(Q(rng.randrange(0, 9), 2), rng.randrange(1, dom.p ** 3)) for _ in range(3)],
        )
        assert canonicalize(f) == f


def test_canonicalize_matches_integer_expansion():
    rng = random.Random(9)
    for _ in range(100):
        p = rng.choice([2, 3, 5])
        dom = PadicDigits(p)
        n = rng.randrange(1, 10**6)
        f = Series(dom, Mode.ARITHMETIC, ((Q(0), n),), INF)
        assert canonicalize(f).terms == base_p_expansion(n, p)


def _coset_integers(terms, p, prec):
    """Oracle: one exact integer per (coset, x-exponent) of raw terms below ``prec``."""
    acc = {}
    for e, monos in terms:
        if e >= prec:
            continue
        n = e.numerator // e.denominator
        for xe, c in monos:
            acc[e - n, xe] = acc.get((e - n, xe), 0) + c * p**n
    return acc


def _expanded(acc, p, prec):
    """Oracle: the base-p digits of each coset integer, as sorted MixedPoly terms."""
    digits = {}
    for (gamma, xe), total in acc.items():
        offset = 0
        while total and gamma + offset < prec:
            total, d = divmod(total, p)
            if d:
                digits.setdefault(gamma + offset, []).append((xe, d))
            offset += 1
    return tuple((k, XPoly(tuple(sorted(digits[k])))) for k in sorted(digits))


@pytest.mark.parametrize("p", [2, 3])
def test_mixed_carry_matches_coset_integer_oracle(p):
    # terms share exponents within and across coefficients; the carry builds
    # each digit itself, so .terms pins the index order and the monomial order
    dom, prec = MixedPoly(p, 32, "p-power"), Q(12)
    rng = random.Random(f"mixed-carry:{p}")
    xexps = [Q(n, d) for d in (1, p) for n in range(4)]

    def raw():  # some exponents lie at or past the frontier 12
        exps = [Q(rng.randrange(13 * d), d) for d in rng.choices((1, p, p * p), k=5)]
        return [(rng.choice(exps), [(rng.choice(xexps), rng.randrange(1, p**4))
                                    for _ in range(rng.randrange(1, 4))])
                for _ in range(rng.randrange(1, 9))]

    for _ in range(40):
        ta, tb = raw(), raw()
        f = Series.make(dom, Mode.ARITHMETIC, [(e, dom.poly(m)) for e, m in ta], prec)
        g = Series.make(dom, Mode.ARITHMETIC, [(e, dom.poly(m)) for e, m in tb], prec)
        ia, ib = _coset_integers(ta, p, prec), _coset_integers(tb, p, prec)
        assert f.terms == _expanded(ia, p, prec)
        assert g.terms == _expanded(ib, p, prec)
        prod = {}
        for (ga, xa), va in ia.items():
            for (gb, xb), vb in ib.items():
                carry = 1 if ga + gb >= 1 else 0
                key = (ga + gb - carry, xa + xb)
                prod[key] = prod.get(key, 0) + va * vb * p**carry
        fg, _ = mul(f, g)
        assert fg.prec == min(prec + g.order_bound(), prec + f.order_bound())
        assert fg.terms == _expanded(prod, p, fg.prec)


def _lost_message(acc, p, N, prec):
    """Oracle: the PrecisionLossError message naming the lowest digit that sits
    at offset >= N of its coset below ``prec``, or None when there is none."""
    lost = []
    for (gamma, xe), total in acc.items():
        offset = 0
        while total and gamma + offset < prec:
            total, d = divmod(total, p)
            if d and offset >= N:
                lost.append((gamma + offset, xe, offset, gamma))
                break
            offset += 1
    if not lost:
        return None
    k, _, offset, gamma = min(lost)
    return (f"digit at index {k} sits at offset {offset} within its coset {gamma} + Z, "
            f"beyond the p^{N} modulus")


def _raw_carry_input(rng, dom, prec):
    """Unsorted raw terms with repeated exponents of denominators 1, 3 and 6,
    some at, just below or past the non-integer frontier ``prec``."""
    near = [prec, prec - 1, Q(17, 3), Q(11, 2), Q(67, 12), Q(35, 6)]
    exps = [Q(rng.randrange(8 * d), d) for d in rng.choices((1, 3, 6), k=4)] + near
    xexps = [Q(0), Q(1, 3), Q(1, 2), Q(5, 6), Q(2)]
    terms = []
    for _ in range(rng.randrange(1, 10)):
        if isinstance(dom, PadicDigits):
            coeff = rng.randrange(1, dom.modulus)
        else:
            coeff = dom.poly([(rng.choice(xexps), rng.randrange(1, dom.modulus))
                              for _ in range(rng.randrange(1, 4))])
        terms.append((rng.choice(exps), coeff))
    return terms


def _as_domain_terms(dom, expanded):
    """The oracle's MixedPoly-style terms in the domain's own coefficients."""
    if isinstance(dom, PadicDigits):
        return tuple((k, a.monomials[0][1]) for k, a in expanded)
    return expanded


@pytest.mark.parametrize("dom", [MixedPoly(3, 32, "any"), PadicDigits(5)], ids=str)
def test_integer_carry_matches_coset_oracle(dom):
    p, prec = dom.p, Q(23, 4)
    rng = random.Random(f"integer-carry:{dom}")
    for _ in range(60):
        terms = _raw_carry_input(rng, dom, prec)
        acc = _coset_integers([(e, dom.monomials(a)) for e, a in terms], p, prec)
        expected = _as_domain_terms(dom, _expanded(acc, p, prec))
        assert canonicalize(Series(dom, Mode.ARITHMETIC, tuple(terms), prec)).terms == expected
        assert Series.make(dom, Mode.ARITHMETIC, terms, prec).terms == expected


@pytest.mark.parametrize("dom", [MixedPoly(3, 2, "any"), PadicDigits(5, 2)], ids=str)
def test_integer_carry_reports_the_lowest_lost_digit(dom):
    p, prec = dom.p, Q(23, 4)
    rng = random.Random(f"integer-carry-loss:{dom}")
    raised = 0
    for _ in range(80):
        terms = _raw_carry_input(rng, dom, prec)
        f = Series(dom, Mode.ARITHMETIC, tuple(terms), prec)
        acc = _coset_integers([(e, dom.monomials(a)) for e, a in terms], p, prec)
        message = _lost_message(acc, p, dom.N, prec)
        if message is None:
            assert canonicalize(f).terms == _as_domain_terms(dom, _expanded(acc, p, prec))
        else:
            raised += 1
            with pytest.raises(PrecisionLossError) as exc:
                canonicalize(f)
            assert str(exc.value) == message
    assert 0 < raised < 80  # both outcomes are exercised


def test_precision_loss_names_the_lowest_index_when_x_exponents_tie():
    # in the coset 1/3 + Z both x-exponents sum to 3 + 3*2 = 1001_2, whose top
    # digit lands at index 10/3, offset 3 >= N = 2; the coset 1/2 + Z loses its
    # digit higher up, at 7/2, and the coset 0 + Z fits (3 = 11_2)
    dom = MixedPoly(2, 2, "any")
    both = XPoly(((Q(0), 3), (Q(1, 2), 3)))
    f = Series(dom, Mode.ARITHMETIC, ((Q(7, 2), dom.one()), (Q(4, 3), both), (Q(0), dom.from_int(3)),
                                      (Q(1, 3), both)), INF)
    with pytest.raises(PrecisionLossError, match=r"^digit at index 10/3 sits at offset 3 "
                       r"within its coset 1/3 \+ Z, beyond the p\^2 modulus$"):
        canonicalize(f)
    with pytest.raises(PrecisionLossError, match=r"^digit at index 10/3 "):
        Series.make(dom, Mode.ARITHMETIC, f.terms, Q(23, 4))
    # below the frontier 10/3 nothing is lost, and the digit of 4/3 is 0
    assert canonicalize(Series(dom, Mode.ARITHMETIC, f.terms, Q(10, 3))).terms == (
        (Q(0), dom.one()), (Q(1, 3), XPoly(((Q(0), 1), (Q(1, 2), 1)))), (Q(1), dom.one()))


def test_canonicalize_requires_arithmetic_mode():
    f = Series.make(P3F, Mode.FORMAL, [(Q(0), P3F.one())])
    with pytest.raises(ModeMismatchError):
        canonicalize(f)


def test_precision_loss_raises():
    dom = PadicDigits(2, 3)
    f = Series(dom, Mode.ARITHMETIC, ((Q(0), 7),), INF)  # 7 = 111_2 fits
    assert canonicalize(f).support == (Q(0), Q(1), Q(2))
    g = Series(dom, Mode.ARITHMETIC, ((Q(2), 2),), INF)  # 2*p^2 = p^3
    with pytest.raises(PrecisionLossError):
        canonicalize(g)
    # the same carry beyond the frontier is absorbed instead
    h = Series(dom, Mode.ARITHMETIC, ((Q(2), 2),), Q(3))
    assert canonicalize(h).is_zero


def test_precision_loss_message_names_index_offset_and_modulus():
    # nothing carries here: the literal digit itself sits at offset 40 >= 32
    with pytest.raises(PrecisionLossError) as exc:
        Series.make(P2, Mode.ARITHMETIC, [(Q(40), 1)])
    assert str(exc.value) == (
        "digit at index 40 sits at offset 40 within its coset 0 + Z, beyond the p^32 modulus"
    )
    # 2*p^{5/2} carries to p^{7/2}: offset 3 in the coset 1/2 + Z
    for dom, coeff in ((PadicDigits(2, 3), 2), (MixedPoly(2, 3), MixedPoly(2, 3).x_power(1, 2))):
        with pytest.raises(PrecisionLossError, match=r"^digit at index 7/2 sits at offset 3 "
                           r"within its coset 1/2 \+ Z, beyond the p\^3 modulus$"):
            Series.make(dom, Mode.ARITHMETIC, [(Q(5, 2), coeff)])


@pytest.mark.parametrize("dom", [PadicDigits(2, 2), MixedPoly(2, 2)])
def test_precision_loss_names_the_lowest_overflowing_digit(dom):
    # coset 1/2 + Z sums to 3 + 3*2 = 1001_2, whose top digit lands at index 7/2;
    # coset 0 + Z sums to 3*2 = 110_2, whose top digit lands at the lower index 2
    three = dom.coerce(3) if isinstance(dom, PadicDigits) else dom.x_power(1, 3)
    f = Series(dom, Mode.ARITHMETIC, ((Q(1, 2), three), (Q(1), three), (Q(3, 2), three)), INF)
    with pytest.raises(PrecisionLossError, match=r"^digit at index 2 sits at offset 2 "
                       r"within its coset 0 \+ Z, beyond the p\^2 modulus$"):
        canonicalize(f)


def test_canonicalize_rejects_characteristic_p_domain():
    f = Series(P3F, Mode.ARITHMETIC, ((Q(0), P3F.one()),), INF)  # bypasses make's guard
    with pytest.raises(ModeMismatchError, match="characteristic-p"):
        canonicalize(f)


def test_canonicalize_checks_each_term_and_keeps_its_integers():
    def canon(dom, e, a):
        return canonicalize(Series(dom, Mode.ARITHMETIC, ((e, a),), INF)).terms

    # each term is checked as Series.make checks it
    with pytest.raises(DomainError, match="not a power of p"):
        canon(MixedPoly(2, 32, "p-power"), Q(0), XPoly(((Q(1, 3), 1),)))
    with pytest.raises(DomainError, match="expected an integer coefficient"):
        canon(MixedPoly(2, 32), Q(0), XPoly(((Q(0), True),)))
    for bad in (2.0, True, "2", MixedPoly(3, 4).one()):
        with pytest.raises(DomainError):
            canon(PadicDigits(3, 4), Q(0), bad)
    for bad in (0.5, True, Q(-1)):
        with pytest.raises(ValueError):
            canon(PadicDigits(3, 4), bad, 1)
    # the integers stay unreduced: 80 = 2222_3 fits four digits, 81 = 3^4 does not
    assert canon(PadicDigits(3, 4), Q(0), 80) == tuple((Q(k), 2) for k in range(4))
    with pytest.raises(PrecisionLossError):
        canon(PadicDigits(3, 4), Q(0), 81)
    with pytest.raises(PrecisionLossError):
        canon(MixedPoly(2, 2), Q(0), XPoly(((Q(0), 4),)))
    # an int x-exponent comes back as a Fraction, and monomials may repeat
    dom = MixedPoly(2, 4)
    out = canon(dom, 1, XPoly(((1, 1), (1, 1))))
    assert out == ((Q(2), dom.x_power(1)),) and type(out[0][1].monomials[0][0]) is Q


# --- gauss_valuation / argnorm -------------------------------------------


def test_gauss_two_term_minimum():
    f = Series.make(P3F, Mode.FORMAL, [(Q(1, 2), P3F.x_power(1)), (Q(0), P3F.x_power(3))])
    assert gauss_valuation(f, 2) == (Q(2), True)


def test_gauss_unit():
    one = Series.make(P3F, Mode.FORMAL, [(Q(0), P3F.one())])
    for s in (Q(1, 4), Q(1), Q(7, 2)):
        assert gauss_valuation(one, s) == (Q(0), True)


def test_gauss_frontier_exactness():
    f = Series.make(P3F, Mode.FORMAL, [(Q(1), P3F.x_power(1))], prec=Q(2))
    assert gauss_valuation(f, Q(1, 4)) == (Q(5, 4), False)
    assert gauss_valuation(f, Q(2)) == (Q(3), True)


def test_gauss_zero_series():
    assert gauss_valuation(Series.make(P3F, Mode.FORMAL, []), 1) == (INF, True)
    truncated_zero = Series.make(P3F, Mode.FORMAL, [], prec=Q(2))
    assert gauss_valuation(truncated_zero, 1) == (INF, False)


def test_argnorm_examples():
    f = Series.make(P3F, Mode.FORMAL, [(Q(1), P3F.one()), (Q(1, 2), P3F.x_power(1))])
    assert argnorm(f, 1) == 1
    g = Series.make(P3F, Mode.FORMAL, [(Q(0), P3F.x_power(1)), (Q(1), P3F.x_power(1))])
    assert argnorm(g, 1) == 0
    tie = Series.make(P3F, Mode.FORMAL, [(Q(1), P3F.x_power(1)), (Q(2), P3F.x_power(1))])
    assert argnorm(tie, 0) == 1  # tie at value 1 breaks to the smaller index


def test_argnorm_zero_series_raises():
    with pytest.raises(ZeroSeriesError):
        argnorm(Series.make(P3F, Mode.FORMAL, []), 1)


def _ord(c, p):
    k = 0
    while c % p == 0:
        c, k = c // p, k + 1
    return k


def _textbook_term_value(dom, i, a, s):
    """Oracle: ``min(s*ord_p(c) + e) + s*i`` over the monomials ``c*x^e`` of ``a``."""
    monos = [(Q(0), a)] if isinstance(dom, PadicDigits) and a else getattr(a, "monomials", ())
    return min((s * _ord(c, dom.p) + e + s * i for e, c in monos), default=INF)


def _term_value_case(rng, dom):
    """A formal series whose coefficients p divides often; some terms carry a zero XPoly."""
    p, terms = dom.p, {}
    for _ in range(rng.randrange(1, 7)):
        e = Q(rng.randrange(0, 30), rng.choice((1, 2, 3, 7)))
        c = rng.choice((1, 2, p, p * p, 2 * p**3, rng.randrange(1, p**5)))
        if isinstance(dom, PadicDigits):
            terms[e] = c
        else:
            dens = (1, p, 5) if dom.denominators == "any" else (1, p, p * p)
            xes = [Q(rng.randrange(0, 6), rng.choice(dens)) for _ in range(rng.randrange(1, 4))]
            terms[e] = dom.poly([(xe, rng.choice((c, p * c, 1))) for xe in xes])
    if not isinstance(dom, PadicDigits) and rng.random() < 0.4:
        terms[Q(rng.randrange(0, 30), 2)] = XPoly(())  # the constructor keeps it: value +oo
    prec = INF if rng.random() < 0.5 else Q(rng.randrange(5, 40), rng.choice((1, 4)))
    kept = tuple(sorted((e, a) for e, a in terms.items() if e < prec))
    return Series(dom, Mode.FORMAL, kept, prec)


@pytest.mark.parametrize("dom", [PadicDigits(3), MixedPoly(3, 32, "any"), MixedPoly(2, 32, "p-power")],
                         ids=str)
def test_term_value_pass_matches_textbook_oracle(dom):
    rng = random.Random(f"term-values:{dom}")
    zero_seen = 0
    for _ in range(40):
        f = _term_value_case(rng, dom)
        zero_seen += any(not isinstance(dom, PadicDigits) and a.is_zero for _, a in f.terms)
        for s in (Q(0), Q(1, 7), Q(5, 3), Q(10**6) + Q(1, 3)):
            expected = [(i, _textbook_term_value(dom, i, a, s)) for i, a in f.terms]
            assert term_values(f, s) == expected
            best = min((v for _, v in expected), default=INF)
            if f.prec == INF:
                exact = True
            else:
                exact = best != INF and s * f.prec >= best
            assert gauss_valuation(f, s) == (best, exact)
            if f.is_zero:
                continue
            assert argnorm(f, s) == next(i for i, v in expected if v == best)
            lo, hi = f.support[len(f.support) // 3], f.support[-1]
            for threshold in (best, best + Q(1, 2), INF):
                kept = tuple(t for t, (_, v) in zip(f.terms, expected)
                             if lo <= t[0] < hi and v <= threshold)
                assert restrict(f, lo, hi, threshold, s).terms == kept
    assert zero_seen or isinstance(dom, PadicDigits)


# --- restrict / witnesses / localize --------------------------------------


def test_restrict_identity_and_empty():
    f = Series.make(P3F, Mode.FORMAL, [(Q(1), P3F.one()), (Q(1, 2), P3F.x_power(1))])
    assert restrict(f, 0, INF, INF, 1) == f
    assert restrict(f, Q(5), Q(5), INF, 1).is_zero


def test_restrict_threshold():
    f = Series.make(P3F, Mode.FORMAL, [(Q(1), P3F.one()), (Q(1, 2), P3F.x_power(1))])
    r = restrict(f, 0, 1, Q(3, 2), 1)
    assert r.terms == ((Q(1, 2), P3F.x_power(1)),)


def test_box_witness_support_gap():
    f = Series.make(P3F, Mode.FORMAL, [(Q(1), P3F.one()), (Q(2), P3F.one())])
    eps, delta = box_witness(f, 1)
    assert eps == 1 and delta > 0
    g = Series.make(P3F, Mode.FORMAL, [(Q(1), P3F.one()), (Q(3, 2), P3F.x_power(1))])
    assert box_witness(g, 1)[0] == Q(1, 2)
    single = Series.make(P3F, Mode.FORMAL, [(Q(1), P3F.one())])
    assert box_witness(single, 1) == (1, 1)


def test_bar_witness_scan_gap():
    f = Series.make(P3F, Mode.FORMAL, [(Q(1, 2), P3F.x_power(1)), (Q(1), P3F.one())])
    assert bar_witness(f, 1, Q(1, 4)) == Q(1, 4)  # half of (3/2 - 1)
    single = Series.make(P3F, Mode.FORMAL, [(Q(1), P3F.one())])
    assert bar_witness(single, 1, Q(1, 4)) == 1


def test_localize_prediction_examples():
    t = Series.make(P3F, Mode.FORMAL, [(Q(1), P3F.one())])
    (f2, g2), prediction = localize(t, t, Q(3, 2))
    assert (f2, g2) == (t, t)
    assert prediction == 3
    f = Series.make(P3F, Mode.FORMAL, [(Q(0), P3F.x_power(1)), (Q(1), P3F.one())])
    g = Series.make(P3F, Mode.FORMAL, [(Q(0), P3F.x_power(1)), (Q(1), P3F.from_int(2))])
    _, prediction = localize(f, g, 2)
    prod, _ = mul(f, g)
    assert prediction == gauss_valuation(prod, 2)[0] == 2


def _count_term_values(monkeypatch):
    """Count the term-value passes the series module makes from here on.

    ``term_values`` and ``gauss_valuation`` both read the private integer
    pass, so counting that pass counts every caller once."""
    import mnseries.series as series_module

    calls = []
    original = series_module._term_value_pairs

    def counted(f, s):
        calls.append(f)
        return original(f, s)

    monkeypatch.setattr(series_module, "_term_value_pairs", counted)
    return calls


def test_witnesses_read_one_term_value_pass(monkeypatch):
    f = Series.make(
        P3F,
        Mode.FORMAL,
        [(Q(1, 2), P3F.x_power(2)), (Q(1), P3F.x_power(1)), (Q(2), P3F.one())],
    )
    g = Series.make(P3F, Mode.FORMAL, [(Q(0), P3F.x_power(1)), (Q(3, 2), P3F.one())])
    calls = _count_term_values(monkeypatch)
    box_witness(f, 1)
    assert len(calls) == 1
    bar_witness(f, 1, Q(1, 4))
    assert len(calls) == 2
    argnorm(f, 1)
    gauss_valuation(f, 1)
    assert len(calls) == 4
    calls.clear()
    localize(f, g, 1)
    # a box and a bar witness per factor, and one pass per window
    assert len(calls) == 6


# --- known silent wraparound ------------------------------------------------
# Arithmetic mode folds equal exponents, multiplies digits, and coerces an
# outside integer (from_int and coerce), modulo p^N before the carry sees
# them, so an overflow past p^N can vanish without a PrecisionLossError.  Each
# test first pins the N = 32 result the small-N computation loses.  They fail
# as XPASS once the fold and the coercion are exact.

_WRAPAROUND = pytest.mark.xfail(
    strict=True, raises=pytest.fail.Exception, reason="silent mod-p^N wraparound"
)


@_WRAPAROUND
def test_make_fold_overflow_raises():
    terms = [(Q(1, 4), 1)] * 4
    assert Series.make(PadicDigits(2, 32), Mode.ARITHMETIC, terms).terms == ((Q(9, 4), 1),)
    with pytest.raises(PrecisionLossError):
        Series.make(PadicDigits(2, 2), Mode.ARITHMETIC, terms)


@_WRAPAROUND
def test_make_coerce_overflow_raises():
    # through the CLI, `mnseries canon 4 --mode arithmetic --prec-N 2` prints 0
    terms = [(Q(0), 4)]
    assert Series.make(PadicDigits(2, 32), Mode.ARITHMETIC, terms).terms == ((Q(2), 1),)
    with pytest.raises(PrecisionLossError):
        Series.make(PadicDigits(2, 2), Mode.ARITHMETIC, terms)


@_WRAPAROUND
def test_padic_digit_square_overflow_raises():
    def square(dom):
        two = Series.make(dom, Mode.ARITHMETIC, [(Q(0), 2)])
        return mul(two, two)[0]

    assert square(PadicDigits(3, 32)).terms == ((Q(0), 1), (Q(1), 1))
    with pytest.raises(PrecisionLossError):
        square(PadicDigits(3, 1))


@_WRAPAROUND
def test_mixed_square_overflow_raises():
    def square(dom):
        f = Series.make(dom, Mode.ARITHMETIC, [(Q(0), dom.poly([(0, 2), (1, 2), (2, 2)]))])
        return mul(f, f)[0]

    assert square(MixedPoly(3, 32)).coefficient(2) == MixedPoly(3, 32).x_power(2)
    with pytest.raises(PrecisionLossError):
        square(MixedPoly(3, 2))


# --- property tests --------------------------------------------------------

_small_q = st.fractions(min_value=0, max_value=6, max_denominator=4)
_digit = st.integers(min_value=1, max_value=31)
_s_values = st.fractions(min_value=Q(1, 4), max_value=4, max_denominator=4)


@st.composite
def padic_series(draw):
    terms = draw(st.lists(st.tuples(_small_q, _digit), max_size=4))
    return Series.make(P2, Mode.ARITHMETIC, terms)


@given(padic_series(), padic_series(), _s_values)
@settings(max_examples=150, deadline=None)
def test_multiplicativity_property(f, g, s):
    prod, _ = mul(f, g)
    vf, _ = gauss_valuation(f, s)
    vg, _ = gauss_valuation(g, s)
    assert gauss_valuation(prod, s)[0] == vf + vg


@given(padic_series(), padic_series(), _s_values)
@settings(max_examples=150, deadline=None)
def test_strong_triangle_property(f, g, s):
    vf, _ = gauss_valuation(f, s)
    vg, _ = gauss_valuation(g, s)
    vh, _ = gauss_valuation(add(f, g), s)
    assert vh >= min(vf, vg)
    if vf != vg:
        assert vh == min(vf, vg)


_raw_term = st.tuples(
    st.fractions(min_value=0, max_value=1, max_denominator=6).filter(lambda q: q < 1),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=1, max_value=40),
)


@given(st.lists(_raw_term, max_size=6))
@settings(max_examples=200, deadline=None)
def test_canonicalize_matches_cosetwise_oracle(triples):
    # independent oracle: evaluate each coset as a plain integer, expand
    # base p, and place digits at gamma + offset
    p = 2
    dom = PadicDigits(p, 32)
    coset_totals = {}
    for gamma, n, digit in triples:
        coset_totals[gamma] = coset_totals.get(gamma, 0) + digit * p**n
    expected = []
    for gamma, total in coset_totals.items():
        offset = 0
        while total:
            total, d = divmod(total, p)
            if d:
                expected.append((gamma + offset, d))
            offset += 1
    f = Series.make(
        dom, Mode.ARITHMETIC, [(gamma + n, digit) for gamma, n, digit in triples]
    )
    assert f.terms == tuple(sorted(expected))
