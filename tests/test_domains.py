"""Coefficient domains: valuations, digit predicates, reductions."""

import math
import random
from fractions import Fraction as Q

import pytest

from mnseries import INF, DomainError, MixedPoly, Mode, PadicDigits, PerfectPoly, Series, XPoly, ordp
from mnseries.domains import _MR_BOUND, _is_prime, _p_power_denominator


def test_ordp():
    assert ordp(12, 2) == 2
    assert ordp(12, 3) == 1
    assert ordp(7, 5) == 0
    with pytest.raises(ValueError):
        ordp(0, 2)


def test_perfect_coeff_valuation_is_min_exponent():
    dom = PerfectPoly(3)
    a = dom.poly([(Q(3, 2), 1), (Q(2), 2)])
    assert dom.coeff_valuation(a) == Q(3, 2)


def test_zero_coefficient_has_infinite_valuation():
    for dom in (PerfectPoly(3), MixedPoly(2, 4), PadicDigits(5)):
        assert dom.coeff_valuation(dom.zero()) == INF


def test_mixed_valuation_reduces_mod_p_first():
    dom = MixedPoly(2, 4)
    a = dom.poly([(Q(1, 2), 2), (Q(1), 1)])
    assert dom.coeff_valuation(a) == 1


def test_padic_base_valuation():
    dom = PadicDigits(2)
    assert dom.base_valuation_at(12, Q(1, 2)) == 1  # 12 = 2^2 * 3
    assert PadicDigits(5).base_valuation_at(3, Q(7, 3)) == 0
    assert dom.base_valuation_at(0, Q(1)) == INF


def test_mixed_base_valuation_minimum():
    dom = MixedPoly(2)
    a = dom.poly([(Q(1, 2), 2), (Q(1), 1)])
    assert dom.base_valuation_at(a, 3) == min(3 + Q(1, 2), Q(1))


def test_canonical_digit_predicate():
    pd = PadicDigits(2)
    assert not pd.is_canonical_digit(6)
    assert pd.is_canonical_digit(3)
    m3 = MixedPoly(3)
    assert m3.is_canonical_digit(m3.poly([(Q(1), 1), (Q(0), 3)]))
    assert not m3.is_canonical_digit(m3.poly([(Q(1), 3)]))


def test_reduce_mod_p():
    dom = MixedPoly(2)
    a = dom.poly([(Q(1, 2), 2), (Q(1), 1)])
    assert dom.reduce_mod_p(a) == dom.residue_domain.x_power(1)
    pd = PadicDigits(3)
    assert pd.reduce_mod_p(7) == pd.residue_domain.from_int(1)


def test_exponent_lattice_policy():
    strict = PerfectPoly(3, "p-power")
    strict.x_power(Q(1, 9))  # 1/3^2 is fine
    with pytest.raises(DomainError):
        strict.x_power(Q(1, 2))
    loose = PerfectPoly(3, "any")
    loose.x_power(Q(1, 2))


def _trial_division_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_primality_verdicts_match_trial_division():
    # every n below 20 000 and a seeded sample below 10^9: the verdict that
    # trial division gave before
    rng = random.Random("primes")
    sample = list(range(-3, 20_000)) + [rng.randrange(2, 10**9) for _ in range(500)]
    assert [n for n in sample if _is_prime(n) != _trial_division_is_prime(n)] == []


@pytest.mark.parametrize("n", [
    561, 1105, 1729,  # Carmichael numbers
    2047,  # the least strong pseudoprime to base 2
    3_215_031_751,  # strong pseudoprime to the bases 2, 3, 5 and 7
    3_825_123_056_546_413_051,  # strong pseudoprime to every base up to 23
])
def test_composite_p_is_rejected(n):
    with pytest.raises(DomainError, match=f"^p must be a prime, got {n}$"):
        PerfectPoly(n)


@pytest.mark.parametrize("n", [2**31 - 1, 2**61 - 1, 10**20 + 39,
                               318_665_857_834_031_151_167_441])  # the last prime below the bound
def test_large_prime_p_is_accepted(n):
    assert _is_prime(n)
    assert PadicDigits(n, 2).p == n


def test_p_at_or_past_the_exact_primality_bound_is_rejected():
    # the bound itself is a strong pseudoprime to all twelve bases: the test
    # alone would call it prime
    assert _is_prime(_MR_BOUND)
    for n in (_MR_BOUND, _MR_BOUND + 2, 10**100 + 267):
        with pytest.raises(DomainError, match=f"^p must be below {_MR_BOUND}, where primality"):
            MixedPoly(n)


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        PerfectPoly(2).x_power(Q(-1, 2))


def test_digit_range_validation():
    pd = PadicDigits(2, 3)
    with pytest.raises(DomainError):
        pd.validate(8)  # = p^N
    with pytest.raises(DomainError):
        pd.validate(-1)
    with pytest.raises(DomainError):
        pd.validate("7")
    # the readers stop at the first monomial prime to p, which is the lowest
    # one only when the exponents strictly increase
    dom = PerfectPoly(2)
    for monomials in (((Q(2), 1), (Q(1), 1)), ((Q(1), 1), (Q(1), 1))):
        with pytest.raises(DomainError, match="strictly increase"):
            dom.validate(XPoly(monomials))
        with pytest.raises(DomainError, match="strictly increase"):
            dom.coeff_valuation(XPoly(monomials))


def test_perfect_valuation_is_multiplicative():
    rng = random.Random(11)
    dom = PerfectPoly(5, "p-power")
    for _ in range(200):
        a = dom.poly([(Q(rng.randrange(0, 20), 5), rng.randrange(1, 5)) for _ in range(2)])
        b = dom.poly([(Q(rng.randrange(0, 20), 5), rng.randrange(1, 5)) for _ in range(2)])
        assert dom.coeff_valuation(dom.mul(a, b)) == dom.coeff_valuation(a) + dom.coeff_valuation(b)


def test_reduced_digit_valuation_constant_in_s():
    dom = MixedPoly(3, 8)
    digit = dom.poly([(Q(1, 3), 2), (Q(2), 1)])
    assert dom.is_reduced_digit(digit)
    values = {dom.base_valuation_at(digit, Q(k, 7)) for k in range(1, 11)}
    assert values == {dom.coeff_valuation(digit)}


def test_padic_shift_by_p():
    dom = PadicDigits(3)
    s = Q(2, 3)
    for a in (1, 2, 5, 12):
        assert dom.base_valuation_at(3 * a, s) == s + dom.base_valuation_at(a, s)


def test_reduction_is_ring_homomorphism():
    rng = random.Random(7)
    dom = MixedPoly(3, 6)
    res = dom.residue_domain
    for _ in range(100):
        a = dom.poly([(Q(rng.randrange(0, 9), 3), rng.randrange(1, 9)) for _ in range(2)])
        b = dom.poly([(Q(rng.randrange(0, 9), 3), rng.randrange(1, 9)) for _ in range(2)])
        assert dom.reduce_mod_p(dom.add(a, b)) == res.add(dom.reduce_mod_p(a), dom.reduce_mod_p(b))
        assert dom.reduce_mod_p(dom.mul(a, b)) == res.mul(dom.reduce_mod_p(a), dom.reduce_mod_p(b))


def test_public_add_and_mul_check_both_operands():
    # each used to pass through unchecked: 6.0, 2, and 99 silently reduced to 3*x
    pd = PadicDigits(2, 3)
    for a, b in ((2.0, 3), (3, 2.0), (True, 9), (9, 1), (1, 8), (-1, 1)):
        for op in (pd.add, pd.mul):
            with pytest.raises(DomainError):
                op(a, b)
    dom = MixedPoly(2, 4)
    wide = XPoly(((Q(1), 99),))
    for op in (dom.add, dom.mul):
        for a, b in ((wide, dom.one()), (dom.one(), wide), (3, dom.one())):
            with pytest.raises(DomainError):
                op(a, b)


def test_base_valuation_rejects_a_negative_gauss_param():
    for s in (-1, Q(-1, 3)):
        with pytest.raises(ValueError, match="nonnegative"):
            PadicDigits(3).base_valuation_at(9, s)  # used to give -2 at s = -1
    assert PadicDigits(3).base_valuation_at(9, "1/2") == 1


def _reference_add(dom, a, b):
    """The poly-based sum the merging kernel replaced."""
    return dom.poly(list(a.monomials) + list(b.monomials))


def _reference_mul(dom, a, b):
    """The poly-based product the integer-numerator kernel replaced."""
    return dom.poly([(ea + eb, ca * cb) for ea, ca in a.monomials for eb, cb in b.monomials])


@pytest.mark.parametrize("dom", [PerfectPoly(2, "p-power"), PerfectPoly(3), PerfectPoly(5, "any"),
                                 MixedPoly(2, 4, "p-power"), MixedPoly(3, 3), MixedPoly(5, 2, "p-power")])
def test_kernels_match_the_poly_based_add_and_mul(dom):
    rng = random.Random(f"kernels:{dom}")
    for _ in range(400):
        a, b = _rand_poly(rng, dom), _rand_poly(rng, dom)
        total, product = _reference_add(dom, a, b), _reference_mul(dom, a, b)
        assert dom.add(a, b) == dom._add(a, b) == total
        assert dom.mul(a, b) == dom._mul(a, b) == product
        for out in (dom._add(a, b), dom._mul(a, b)):
            dom.validate(out)  # sorted and reduced


def test_float_and_bool_coefficients_are_rejected():
    # each used to be truncated silently: 2 + x, 7, 7, 2*x and the coefficient 2
    dom = MixedPoly(3, 4)
    for build in (lambda: dom.poly([(Q(0), 2.5), (Q(1), True)]),
                  lambda: dom.poly([(Q(1), True)]),
                  lambda: dom.from_int(7.9),
                  lambda: PadicDigits(3, 4).from_int(7.9),
                  lambda: dom.x_power(1, 2.7),
                  lambda: Series.make(dom, Mode.FORMAL, [(0, XPoly(((Q(0), 2.5),)))])):
        with pytest.raises(DomainError, match="expected an integer coefficient"):
            build()


def _reference_poly(dom, terms):
    """The per-monomial poly that the one-pass poly replaced."""
    acc = {}
    for e, c in terms:
        e = dom._check_exponent(e)
        acc[e] = (acc.get(e, 0) + int(c)) % dom.modulus
    return XPoly(tuple(sorted((e, c) for e, c in acc.items() if c)))


def _outcome(build, *args):
    try:
        return build(*args)
    except (ValueError, DomainError) as err:
        return type(err), str(err)


_POLY_FAULTS = ((Q(-1, 2), 1), (Q(1, 7), 1), (0.5, 1), (True, 1), (Q(1), 2.5), (Q(0), True),
                (Q(1, 2), 3.0))


def _poly_terms(rng, dom):
    """Unsorted and repeated exponents over mixed denominators, some of them
    summing to 0 mod p^N, and in a third of the cases one or two faults."""
    p, modulus = dom.p, dom.modulus
    dens = (1, p, p * p, 2, 3, 6)
    exps = [Q(rng.randrange(0, 12), rng.choice(dens)) for _ in range(rng.randrange(1, 4))] + [3, "1/2"]
    terms = []
    for _ in range(rng.randrange(0, 7)):
        e = rng.choice(exps)
        c = rng.choice((1, p - 1, rng.randrange(-modulus, 3 * modulus), 10**30 + 7))
        terms.append((e, c))
        if rng.random() < 0.3:
            terms.append((e, rng.choice((-c, modulus - c))))
    if rng.random() < 0.35:
        for _ in range(rng.randrange(1, 3)):
            terms.insert(rng.randrange(len(terms) + 1), rng.choice(_POLY_FAULTS))
    return terms


@pytest.mark.parametrize("dom", [PerfectPoly(2, "p-power"), PerfectPoly(3), MixedPoly(2, 4, "p-power"),
                                 MixedPoly(3, 3), MixedPoly(5, 2, "p-power"), MixedPoly(5, 2, "any")])
def test_poly_matches_the_per_monomial_reference(dom):
    rng = random.Random(f"poly:{dom}")
    for _ in range(500):
        terms = _poly_terms(rng, dom)
        inexact = [k for k, (_, c) in enumerate(terms) if isinstance(c, (bool, float))]
        if inexact:  # the one change: the first float or bool coefficient raises after its exponent
            k = inexact[0]
            expected = _outcome(_reference_poly, dom, terms[:k] + [(terms[k][0], 0)])
            if isinstance(expected, XPoly):
                expected = (DomainError, f"expected an integer coefficient, got {terms[k][1]!r}")
        else:
            expected = _outcome(_reference_poly, dom, terms)
        got = _outcome(dom.poly, terms)
        assert got == expected, terms
        if isinstance(got, XPoly):
            assert dom.validate(got) is got and all(type(e) is Q for e, _ in got.monomials)


@pytest.mark.parametrize("p", [0, 1, 4, 6, 9])
def test_non_prime_p_rejected_in_every_domain(p):
    for make in (PerfectPoly, PadicDigits, MixedPoly):
        with pytest.raises(DomainError, match="prime"):
            make(p)


def test_prime_p_accepted_in_every_domain():
    for p in (2, 3, 5, 7, 97):
        for make in (PerfectPoly, PadicDigits, MixedPoly):
            assert make(p).p == p


# --- one implementation against the per-domain formulas it replaced --------

S_VALUES = (Q(0), Q(1, 3), Q(2))


def _shared(dom, a, s):
    return (dom.coeff_valuation(a), dom.base_valuation_at(a, s), dom.is_canonical_digit(a),
            dom.is_reduced_digit(a), dom.reduce_mod_p(a), dom.residue_domain)


def _perfect_reference(dom, a, s):
    """x-adic: the smallest exponent for every s; p annihilates every coefficient."""
    v = a.monomials[0][0] if a.monomials else INF
    return (v, v, not a.is_zero, not a.is_zero, a, dom)


def _padic_reference(dom, a, s):
    """0 or +oo by the residue mod p, s * ord_p(a), and the residue as a constant."""
    res = PerfectPoly(dom.p)
    return (Q(0) if a % dom.p else INF, INF if a == 0 else s * ordp(a, dom.p),
            a % dom.p != 0, 0 < a < dom.p, res.from_int(a % dom.p), res)


def _rand_poly(rng, dom):
    dens = [dom.p**k for k in range(3)] if dom.denominators == "p-power" else [1, 2, 3, 5, 6]
    return dom.poly([(Q(rng.randrange(0, 12), rng.choice(dens)), rng.randrange(1, dom.modulus))
                     for _ in range(rng.randrange(0, 4))])


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("denominators", ["p-power", "any"])
def test_perfect_poly_keeps_its_own_formulas(p, denominators):
    rng = random.Random(p)
    dom = PerfectPoly(p, denominators)
    for _ in range(60):
        a = _rand_poly(rng, dom)
        for s in S_VALUES:
            assert _shared(dom, a, s) == _perfect_reference(dom, a, s)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_padic_digits_keep_their_own_formulas(p):
    rng = random.Random(p)
    dom = PadicDigits(p, 4)
    digits = [0, 1, p - 1, p, p * p, dom.modulus - 1]
    digits += [rng.randrange(dom.modulus) for _ in range(40)]
    digits += [p * rng.randrange(dom.modulus // p) for _ in range(20)]
    for a in digits:
        for s in S_VALUES:
            assert _shared(dom, a, s) == _padic_reference(dom, a, s)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("denominators", ["p-power", "any"])
def test_perfect_poly_is_mixed_poly_at_precision_one(p, denominators):
    rng = random.Random(10 + p)
    perfect, mixed = PerfectPoly(p, denominators), MixedPoly(p, 1, denominators)
    assert perfect.modulus == mixed.modulus == p
    for _ in range(60):
        a = _rand_poly(rng, perfect)
        for s in S_VALUES:
            assert _shared(perfect, a, s) == _shared(mixed, a, s)


def _reference_p_power_denominator(den, p):
    """The division loop the bit test and the modular power replaced."""
    while den % p == 0:
        den //= p
    return den == 1


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_p_power_denominator_matches_division_loop(p):
    rng = random.Random(p)
    dens = [1] + [p**k for k in range(1, 201)]
    cofactors = [m for m in range(2, 60) if m % p] + [rng.randrange(2, 10**30) for _ in range(20)]
    dens += [p**k * m for k in range(0, 201, 7) for m in cofactors]
    dens += [p**k + 1 for k in range(1, 201, 11)] + [p**k - 1 for k in range(2, 201, 11)]
    for den in dens:
        assert _p_power_denominator(den, p) == _reference_p_power_denominator(den, p), den


@pytest.mark.parametrize("dom", [PerfectPoly(3), PerfectPoly(2, "p-power"), MixedPoly(5, 3),
                                 MixedPoly(3, 2, "p-power")])
def test_x_power_is_the_one_term_poly(dom):
    for e in (0, 2, Q(1, 3), Q(5, 4), Q(7, 9), Q(3, 25), "1/2"):
        for c in (1, -1, 2, dom.p, dom.modulus, dom.modulus + 1, 10**40 + 3):
            try:
                expected = dom.poly([(Q(e), c)])
            except DomainError:
                with pytest.raises(DomainError):
                    dom.x_power(e, c)
                continue
            assert dom.x_power(e, c) == expected
    for bad in (-1, Q(-1, 2)):
        with pytest.raises(ValueError):
            dom.x_power(bad)


@pytest.mark.parametrize("dom", [PerfectPoly(3), PerfectPoly(2, "p-power"), MixedPoly(5, 3),
                                 MixedPoly(3, 2, "p-power")])
def test_p_power_monomial_is_the_checked_unit_monomial(dom):
    for m in (0, 1, 2, dom.p, 7 * dom.p + 1, 10**40 + 3):
        for k in (0, 1, 2, 5, 188):
            got = dom._p_power_monomial(m, k)
            assert got == dom.x_power(Q(m, dom.p**k)) and dom.validate(got) is got


def test_residue_domain_built_once_per_prime_and_policy():
    for p in (2, 3, 5):
        for policy in ("p-power", "any"):
            doms = [PerfectPoly(p, policy), MixedPoly(p, 4, policy), MixedPoly(p, 9, policy)]
            assert all(d.residue_domain is doms[0].residue_domain for d in doms)
            assert doms[0].residue_domain == PerfectPoly(p, policy)
        assert PadicDigits(p).residue_domain is PadicDigits(p, 3).residue_domain
        assert PadicDigits(p).residue_domain == PerfectPoly(p)


@pytest.mark.parametrize(
    "make, args, name",
    [
        (PadicDigits, (2, 2.5), "N"),
        (MixedPoly, (3, 2.5), "N"),
        (MixedPoly, (3, True), "N"),
        (PadicDigits, (2, True), "N"),
        (PadicDigits, (2.0,), "p"),
        (PerfectPoly, (2.0,), "p"),
        (MixedPoly, (3.0, 4), "p"),
        (PerfectPoly, (True,), "p"),
        (PadicDigits, ("2",), "p"),
        (MixedPoly, (4.0, 2.5), "p"),  # p before N, and before the prime test
    ],
)
def test_domain_parameters_must_be_ints(make, args, name):
    bad = dict(zip(("p", "N"), args))[name]
    with pytest.raises(DomainError, match=f"^{name} must be an int, got {bad!r}$"):
        make(*args)



@pytest.mark.parametrize("make", [PadicDigits, MixedPoly])
def test_modulus_is_computed_once_on_first_read(make):
    dom = make(3, 1000)
    assert dom.modulus is dom.modulus and dom.modulus == 3**1000
    fresh = make(3, 1000)  # no modulus read yet
    assert dom == fresh and hash(dom) == hash(fresh) and repr(dom) == repr(fresh)
    assert repr(dom) == ("PadicDigits(p=3, N=1000)" if make is PadicDigits
                         else "MixedPoly(p=3, N=1000, denominators='any')")
    assert PerfectPoly(5).modulus == 5
