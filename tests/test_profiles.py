"""Profiles, inverse Legendre constants, classification, chains, ideals."""

import hashlib
import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction as Q
from pathlib import Path

import pytest

import mnseries
import mnseries.profiles as profiles_module
from mnseries import (
    INF,
    ChainReport,
    IndexPoints,
    MNSeriesError,
    MixedPoly,
    Mode,
    PadicDigits,
    PerfectPoly,
    PowerLaw,
    PrecisionLossError,
    ProfileElement,
    RationalInterval,
    Series,
    TargetError,
    chain_report,
    classify,
    deviation_within_bound,
    discretely_approximate,
    in_m,
    inverse_legendre_power,
    iroot,
    legendre_eval,
    legendre_power_law,
    lower_hull,
    materialize,
    newton_polygon,
    sup_distance,
    supremum_example,
)

P2 = PerfectPoly(2, "p-power")


def minimize_on_grid(c, r, s, lo=1e-9, hi=1e9, steps=2000, refinements=4):
    """Independent oracle: coarse geometric grid plus local refinement."""
    best_x, best = None, None
    for _ in range(refinements):
        ratio = (hi / lo) ** (1.0 / steps)
        x = lo
        for _ in range(steps + 1):
            v = c * x**-r + s * x
            if best is None or v < best:
                best, best_x = v, x
            x *= ratio
        lo, hi = best_x / ratio**2, best_x * ratio**2
    return best


def test_iroot():
    assert iroot(3, 8) == 2
    assert iroot(3, 7) == 1
    assert iroot(2, 10**12) == 10**6
    assert iroot(5, 0) == 0
    for n, b in ((2, 17), (3, 1000), (7, 2**70 + 5)):
        root = iroot(n, b)
        assert root**n <= b < (root + 1) ** n


@pytest.mark.parametrize("n, value, message", [
    (0, 5, "root degree must be an integer >= 1, got 0"),
    (-1, 5, "root degree must be an integer >= 1, got -1"),
    (2.0, 9, "root degree must be an integer >= 1, got 2.0"),
    (True, 9, "root degree must be an integer >= 1, got True"),
    (2, 9.0, "iroot needs an integer value >= 0, got 9.0"),
    (2, True, "iroot needs an integer value >= 0, got True"),
    (2, -4, "iroot needs an integer value >= 0, got -4"),
])
def test_iroot_rejects_what_is_not_a_degree_and_a_nonnegative_int(n, value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        iroot(n, value)


def test_inverse_legendre_half():
    c, r = inverse_legendre_power(Q(1, 2))
    assert (c, r) == (Q(1, 4), Q(1))


def test_inverse_legendre_two_thirds():
    c, r = inverse_legendre_power(Q(2, 3))
    assert r == 2
    assert c == Q(4, 27)


def test_half_is_fixed_point_of_rate_inversion():
    _, r = inverse_legendre_power(Q(1, 2))
    assert r == 1 / r  # mu = r/(r+1) at r = 1 gives mu = 1/2


def test_inverse_legendre_interval_case():
    c, r = inverse_legendre_power(Q(1, 8))
    assert r == Q(1, 7)
    assert isinstance(c, RationalInterval)
    assert c.width < Q(1, 2**60)
    # exact enclosure: c^7 = 1^1 * 7^7 / 8^8
    target = Q(7**7, 8**8)
    assert c.lo**7 <= target <= c.hi**7
    rf = 1 / 7
    true = rf**rf / (1 + rf) ** (1 + rf)
    assert abs(float(c.midpoint) - true) < 1e-12


def test_inverse_constant_is_rational_exactly_when_r_is_an_integer():
    # every k/d, 2 <= d <= 60, duplicates included; the digest pins each (c, r)
    digest = hashlib.sha256()
    for d in range(2, 61):
        for k in range(1, d):
            c, r = inverse_legendre_power(Q(k, d))
            assert isinstance(c, Q) == (r.denominator == 1), (k, d)
            digest.update((repr((c, r)) + "\n").encode())
    assert digest.hexdigest() == (
        "eeed0899c31fd7afaa3d5be671a3024966e42315e95bb347bfdedc33c6c260a2")


def test_inverse_legendre_domain():
    for bad in (0, 1, Q(3, 2), -1):
        with pytest.raises(ValueError):
            inverse_legendre_power(bad)


def test_grid_minimization_oracle_confirms_constant():
    # the numeric cross-check of the certified constants, exact and interval
    for mu in (Q(1, 2), Q(2, 3), Q(1, 8), Q(1, 16), Q(3, 8), Q(15, 16)):
        c, r = inverse_legendre_power(mu)
        c = c.midpoint if isinstance(c, RationalInterval) else c
        for j in range(1, 21):
            s = j / 20
            want = s ** float(mu)
            assert abs(minimize_on_grid(float(c), float(r), s) - want) <= 1e-6 * want, (mu, s)


def test_inverse_constant_certificate_rejects_a_wrong_constant():
    certify = profiles_module._certify_inverse_constant
    certify(Q(1, 4), 1, 1)  # r = 1: c = 1/4
    certify(RationalInterval(Q(1, 5), Q(1, 3)), 1, 1)
    for wrong in (Q(1, 3), RationalInterval(Q(1, 5), Q(6, 25)), RationalInterval(Q(26, 100), Q(1, 3))):
        with pytest.raises(MNSeriesError, match="certificate"):
            certify(wrong, 1, 1)


def test_profile_digit_rule_spec_values():
    prof = ProfileElement.for_exponent(Q(1, 2), P2)
    assert prof.digit_exponent(1) == Q(1, 4)
    assert prof.digit_exponent(2) == Q(1, 8)
    q3 = prof.digit_exponent(3)
    assert abs(q3 - Q(1, 12)) < Q(1, 12) / 3  # within the o(G) bound of 1/12


def test_profile_deviation_bound_exact():
    rng = random.Random(2)
    for mu in (Q(1, 8), Q(3, 8), Q(1, 2), Q(5, 8), Q(7, 8)):
        prof = ProfileElement.for_exponent(mu, P2)
        for i in rng.sample(range(1, 200), 12):
            assert deviation_within_bound(prof, i, prof.digit_exponent(i))


def test_materialize_structure():
    prof = ProfileElement.for_exponent(Q(1, 2), P2)
    f = materialize(prof, 2)
    assert f.support == (Q(1), Q(2))
    assert f.prec == Q(3)
    assert f.coefficient(1) == P2.x_power(Q(1, 4))
    single = materialize(prof, 1)
    assert single.support == (Q(1),)
    with pytest.raises(ValueError):
        materialize(prof, 0)


def test_materialize_polygon_tracks_profile():
    prof = ProfileElement.for_exponent(Q(1, 2), P2)
    poly = newton_polygon(materialize(prof, 64))
    for x, y in poly.nodes:
        i = int(x)
        assert deviation_within_bound(prof, i, y)


def test_materialize_refined_lattice_support():
    prof = ProfileElement.for_exponent(Q(7, 8), P2)
    f = materialize(prof, 16, Q(1, 8))
    assert f.support == tuple(Q(n, 8) for n in range(8, 8 * 16 + 1))
    assert f.prec == Q(17)
    assert f.coefficient(Q(9, 8)) == P2.x_power(prof.digit_exponent(Q(9, 8)))
    # the integer points of the refined lattice carry the integer-lattice digits
    assert f.coefficient(3) == materialize(prof, 16).coefficient(3)


def test_materialize_refined_lattice_polygon_tracks_profile():
    for mu in (Q(1, 8), Q(1, 2), Q(7, 8)):
        prof = ProfileElement.for_exponent(mu, P2)
        poly = newton_polygon(materialize(prof, 64, Q(1, 8)))
        assert any(x.denominator > 1 for x, _ in poly.nodes)
        for x, y in poly.nodes:
            assert deviation_within_bound(prof, x, y)
    prof3 = ProfileElement.for_exponent(Q(2, 3), PerfectPoly(3, "p-power"))
    for x, y in newton_polygon(materialize(prof3, 20, Q(1, 9))).nodes:
        assert deviation_within_bound(prof3, x, y)


def test_materialize_unit_step_is_integer_lattice():
    prof = ProfileElement.for_exponent(Q(1, 2), P2)
    expected = Series.make(
        P2,
        Mode.FORMAL,
        [(Q(i), P2.x_power(prof.digit_exponent(i))) for i in range(1, 33)],
        prec=Q(33),
    )
    for step in (1, Q(1), "1"):
        assert materialize(prof, 32, step) == expected
    assert materialize(prof, 32) == expected
    assert prof.digit_exponent(Q(3)) == prof.digit_exponent(3) == Q(43691, 524288)


def test_materialize_rejects_bad_steps():
    prof = ProfileElement.for_exponent(Q(1, 2), P2)
    for bad in (0, Q(-1, 8), -1, 2, Q(1, 3), Q(3, 8), Q(1, 6)):
        with pytest.raises(ValueError):
            materialize(prof, 4, bad)
    prof3 = ProfileElement.for_exponent(Q(1, 2), PerfectPoly(3, "p-power"))
    with pytest.raises(ValueError):
        materialize(prof3, 4, Q(1, 2))
    assert materialize(prof3, 2, Q(1, 9)).support[:2] == (Q(1), Q(10, 9))


def test_digit_exponent_rational_index_float_oracle():
    # q_i = round(tau 2^k) / 2^k, k minimal with 2^-k <= tau / (2^12 i^2)
    for mu in (Q(1, 8), Q(1, 3), Q(7, 8)):
        prof = ProfileElement.for_exponent(mu, P2)
        for i in (Q(9, 8), Q(5, 2), Q(77, 16), Q(1001, 64)):
            tau = float(prof.c) * float(i) ** -float(prof.r)
            k = math.ceil(math.log2(2**12 * float(i) ** 2 / tau))
            assert prof.digit_exponent(i) == Q(round(tau * 2**k), 2**k)


def test_rational_index_rules():
    prof = ProfileElement.for_exponent(Q(1, 3), P2)  # r = 1/2: even root degree
    for i in (Q(1), Q(9, 8), Q(5, 2), Q(77, 16)):
        q = prof.digit_exponent(i)
        assert deviation_within_bound(prof, i, q)
        assert not deviation_within_bound(prof, i, -q)
        assert not deviation_within_bound(prof, i, 3 * q)
    # both edges of |q - tau| <= tau / i, tau = c i^-r, at rational indices
    for mu in (Q(1, 3), Q(7, 8)):
        prof_mu = ProfileElement.for_exponent(mu, P2)
        for i in (Q(9, 8), Q(5, 2), Q(77, 16)):
            tau = float(prof_mu.c) * float(i) ** -float(prof_mu.r)
            for edge, inward in ((1 + 1 / i, -1), (1 - 1 / i, 1)):
                bound = tau * float(edge)
                assert deviation_within_bound(prof_mu, i, Q(bound * (1 + inward * 1e-6)))
                assert not deviation_within_bound(prof_mu, i, Q(bound * (1 - inward * 1e-6)))
    with pytest.raises(ValueError):
        prof.digit_exponent(Q(7, 8))
    with pytest.raises(ValueError):
        deviation_within_bound(prof, Q(1, 2), Q(1))


def test_legendre_power_law_exponent():
    prof = ProfileElement.for_exponent(Q(1, 2), P2)
    law = legendre_power_law(prof)
    assert law.exponent == Q(1, 2)
    assert law.coeff == 1
    prof2 = ProfileElement.for_exponent(Q(2, 3), P2)
    assert legendre_power_law(prof2).exponent == Q(2, 3)
    prof3 = ProfileElement.for_exponent(Q(1, 8), P2)
    law3 = legendre_power_law(prof3)
    assert law3.exponent == Q(1, 8)
    assert abs(float(law3.coeff) - 1.0) < 1e-9


def test_classify_verdicts():
    omega = classify(PowerLaw(Q(1), Q(1, 2)), PowerLaw(Q(1), Q(3, 4)))
    assert omega.verdict == "omega" and not omega.in_O_sup and omega.in_omega_sup
    theta = classify(PowerLaw(Q(2), Q(1, 2)), PowerLaw(Q(1), Q(1, 2)))
    assert theta.verdict == "theta" and theta.in_O_sup and not theta.in_omega_sup
    small = classify(PowerLaw(Q(2), Q(1)), PowerLaw(Q(1), Q(1, 2)))
    assert small.verdict == "o" and small.in_O_sup


def test_discrete_approximation_spec_node():
    series, cert = discretely_approximate([(i, Q(1, i)) for i in range(1, 9)], P2)
    by_index = {i: (q, k) for i, _, q, k in cert.nodes}
    assert by_index[3] == (Q(1, 4), 2)
    assert abs(Q(1, 4) - Q(1, 3)) == Q(1, 12) <= Q(1, 9)
    assert cert.ok
    assert cert.max_deviation <= max(Q(1, i * i) for i in range(1, 9))


def test_discrete_approximation_exact_targets():
    targets = [(1, Q(1)), (2, Q(1, 2)), (4, Q(1, 4))]
    series, cert = discretely_approximate(targets, P2)
    assert all(d == 0 for d in cert.deviations)
    assert [q for _, _, q, _ in cert.nodes] == [Q(1), Q(1, 2), Q(1, 4)]


def test_discrete_approximation_hull_stability():
    targets = [(i, Q(1, i)) for i in range(1, 9)]
    series, cert = discretely_approximate(targets, P2)
    hull_target = lower_hull([(Q(i), g) for i, g in targets])
    hull_got = newton_polygon(series)
    assert sup_distance(hull_target, hull_got) <= cert.max_deviation
    for k, sd in enumerate(cert.secant_deviations):
        assert sd <= cert.deviations[k] + cert.deviations[k + 1]


def test_discrete_approximation_rejects_bad_targets():
    with pytest.raises(TargetError):
        discretely_approximate([(1, Q(1)), (2, Q(2))], P2)  # increasing
    with pytest.raises(TargetError):
        discretely_approximate([(1, Q(1)), (2, Q(1, 2)), (3, Q(1, 3)), (4, Q(0))], P2)
    with pytest.raises(TargetError):
        # concave triple: slopes -1/2 then -1
        discretely_approximate([(1, Q(2)), (2, Q(3, 2)), (3, Q(1, 2))], P2)


def test_chain_report_full_grid():
    grid = [Q(1, 4), Q(1, 2), Q(3, 4)]
    report = chain_report(grid, depth=16)
    assert len(report.pairs) == 3
    assert report.all_separated
    assert report.all_in_ideal
    for _, _, verdict, separated in report.pairs:
        assert verdict == "omega" and separated


def test_chain_report_singleton_and_bad_grids():
    assert chain_report([Q(1, 2)], depth=4).pairs == ()
    with pytest.raises(ValueError):
        chain_report([Q(1, 2), Q(1, 2)], depth=4)
    with pytest.raises(ValueError):
        chain_report([Q(0), Q(1, 2)], depth=4)


def test_in_m_examples():
    pi = Series.make(PadicDigits(2), Mode.ARITHMETIC, [(Q(1), 1)])
    assert not in_m(pi)
    f = Series.make(
        P2,
        Mode.FORMAL,
        [(Q(1), P2.x_power(1)), (Q(2), P2.x_power(Q(1, 2)))],
    )
    assert in_m(f)
    g = Series.make(P2, Mode.FORMAL, [(Q(0), P2.x_power(1)), (Q(1), P2.one())])
    assert not in_m(g)


def test_supremum_example_values():
    values, limit = supremum_example(1, 100)
    assert limit == 3
    assert values[0] == Q(7, 2)
    assert all(v > 3 for v in values)
    assert all(b < a for a, b in zip(values, values[1:]))
    single, _ = supremum_example(1, 1)
    assert single == [Q(7, 2)]


def test_supremum_example_general_s_limit():
    for s in (Q(1, 4), Q(1, 2), Q(3, 2)):
        values, limit = supremum_example(s, 30)
        assert limit == 1 + 2 * s
        assert all(v > limit for v in values)


def test_supremum_example_delta_constraint():
    with pytest.raises(ValueError):
        supremum_example(2, 5)  # default delta violates delta_n < 1/(n*s)
    values, limit = supremum_example(2, 5, delta=lambda n: Q(1, 4 * n))
    assert limit == 5 and all(v > 5 for v in values)


# --- materialize builds each digit once: same series as the Series.make path ---


def reference_iroot(n, value):
    """Newton's iteration from the next power of two: the start the float start replaced."""
    if value == 0:
        return 0
    x = 1 << ((value.bit_length() + n - 1) // n)
    while True:
        y = ((n - 1) * x + value // x ** (n - 1)) // n
        if y >= x:
            return x
        x = y


def reference_digit_exponent(profile, i):
    """The digit rule with k counted up from 0, as before the bit-length start."""
    i = Q(i)
    n, d = i.numerator, i.denominator
    p = profile.domain.p
    a, b = profile.r.numerator, profile.r.denominator
    u, v = profile.c.numerator, profile.c.denominator
    lhs = (v * n * n * (1 << 12)) ** b * n**a
    rhs = u**b * d ** (2 * b + a)
    k = 0
    while rhs < lhs:
        rhs *= p**b
        k += 1
    pk = p**k
    P, Qb = (u * pk) ** b * d**a, v**b * n**a
    m = reference_iroot(b, P // Qb)
    if (2 * m + 1) ** b * Qb <= (1 << b) * P:
        m += 1
    return Q(m, pk)


def reference_materialize(profile, up_to, step):
    """Every digit through x_power -> poly, then Series.make, as before."""
    dom = profile.domain
    mode = Mode.FORMAL if isinstance(dom, PerfectPoly) else Mode.ARITHMETIC
    per_unit = Q(step).denominator
    terms = []
    for n in range(per_unit, per_unit * up_to + 1):
        i = Q(n, per_unit)
        terms.append((i, dom.poly([(reference_digit_exponent(profile, i), 1)])))
    return Series.make(dom, mode, terms, prec=Q(up_to + 1))


def test_iroot_matches_power_of_two_start():
    rng = random.Random(71)
    values = [rng.getrandbits(rng.randrange(1, 1100)) for _ in range(3000)]
    values += [2**1000 - 1, 2**1000, 2**1000 + 1, 2**999, 10**301]
    for n in range(1, 17):
        for x in (1, 2, 3, 10, 2**20 - 1, 2**33 + 5, 3**40, 2**(1000 // n)):
            values += [x**n - 1, x**n, x**n + 1]
    for idx, value in enumerate(values):
        for n in (1 + idx % 16, 1 + (idx * 7) % 16):
            root = iroot(n, value)
            assert root == reference_iroot(n, value), (n, value)
            assert root**n <= value < (root + 1) ** n


def test_iroot_floor_root_of_large_values_at_high_degree(monkeypatch):
    # the float start from the leading bits: Newton from 2^ceil(bits/n) took ~n steps here
    rng = random.Random(73)
    values = [(n, rng.getrandbits(300_000) | 1 << 300_000) for n in (200, 211, 509)]
    for n, value in values:
        root = iroot(n, value)
        assert root**n <= value < (root + 1) ** n
        assert iroot(n, root**n) == root and iroot(n, root**n - 1) == root - 1
    # floats only guess: a start below the root fails its certificate, and
    # Newton starts from the power of two instead
    monkeypatch.setattr(math, "log2", lambda v: -5.0)
    for n, value in ((3, 1000), (7, 2**70 + 5), (16, 2**1000 + 1)):
        assert iroot(n, value) == reference_iroot(n, value)


@pytest.mark.parametrize("dom", [P2, PerfectPoly(3, "p-power"), MixedPoly(2, 32, "p-power"),
                                 MixedPoly(3, 8)])
def test_materialize_matches_series_make_construction(dom):
    # an arithmetic-mode profile carries into offset N at depth N (both paths raise)
    depth = 48 if isinstance(dom, PerfectPoly) else dom.N - 1
    for mu in (Q(1, 16), Q(1, 3), Q(1, 2), Q(7, 8)):
        profile = ProfileElement.for_exponent(mu, dom)
        for step in (1, Q(1, dom.p**2) if dom.p == 3 else Q(1, 8)):
            got = materialize(profile, depth, step)
            want = reference_materialize(profile, depth, step)
            assert got == want
            assert got.terms == want.terms and got.prec == want.prec and got.mode is want.mode
    if isinstance(dom, MixedPoly):
        profile = ProfileElement.for_exponent(Q(1, 2), dom)
        for build in (materialize, lambda prof, depth: reference_materialize(prof, depth, 1)):
            with pytest.raises(PrecisionLossError, match=f"index {dom.N} "):
                build(profile, dom.N)


# --- the guess-and-certify digit rule gives the reference rule's digits ---

MU_UNIVERSE = sorted({Q(n, d) for d in (4, 8, 12, 16) for n in range(1, d)})


@pytest.mark.parametrize("p", [2, 3, 5])
def test_digit_exponent_matches_reference_rule(p):
    dom = PerfectPoly(p, "p-power")
    h = 9 if p == 3 else 8
    indices = list(range(1, 1025)) + [Q(n, h) for n in range(h + 1, 64 * h + 1)]
    # around the float-guess limit for m (2^12 i^2 ~ 2^40) and far beyond float range
    indices += [2**14 - 1, 2**14, 2**14 + 1, 10**6, 2**53 + 1, 10**30,
                10**400, Q(10**400 + 1, 8), Q(3**700 + 1, 3**5)]
    for mu in MU_UNIVERSE:
        profile = ProfileElement.for_exponent(mu, dom)
        for i in indices:
            assert profile.digit_exponent(i) == reference_digit_exponent(profile, i), (mu, i)


def reference_digit(profile, n, d):
    """The per-index rule the stream replaced: (m, k) at i = n/d, each index on its own."""
    a, b, ub, vb, step, ln_p, ln_c, r_float = profile._rule
    ln_i = math.log(n) - math.log(d)
    bound = n ** (2 * b) << (12 * b)
    Qn = vb * n**a
    k = max(0, math.ceil((12 * math.log(2) - ln_c + (2 + r_float) * ln_i) / ln_p))
    rhs = ub * d ** (2 * b + a) * step**k
    W = (rhs << b) // Qn
    while W >> b < bound:
        k += 1
        rhs *= step
        W = (rhs << b) // Qn
    while k and (W >> b) // step >= bound:
        k -= 1
        W //= step
    W //= d ** (2 * b)
    ln_m = ln_c + k * ln_p - r_float * ln_i
    m = int(math.exp(ln_m) + 0.5) if ln_m < 40 * math.log(2) else (iroot(b, W) + 1) // 2
    while (2 * m + 1) ** b <= W:
        m += 1
    while (2 * m - 1) ** b > W:
        m -= 1
    return m, k


@pytest.mark.parametrize("p", [2, 3, 5])
def test_digit_stream_equals_the_per_index_rule(p):
    # the stream places k once and only steps it up; every (m, k) is the rule's
    dom = PerfectPoly(p, "p-power")
    for mu in MU_UNIVERSE + [Q(2, 5), Q(1, 7), Q(99, 100)]:
        profile = ProfileElement.for_exponent(mu, dom)
        for d in (1, p, p * p):
            stop = 64 * d + 1
            stream = profile._digits(d, d, stop)
            assert stream == [reference_digit(profile, n, d) for n in range(d, stop)], (mu, d)
            ks = [k for _, k in stream]
            assert ks == sorted(ks), (mu, d)  # k never falls along a stream
            for n in (d, d + 1, (d + stop) // 2, stop - 1):
                assert profile._digits(d, n, n + 1) == [stream[n - d]], (mu, d, n)
                assert profile._digits(d, n, stop) == stream[n - d:], (mu, d, n)


def per_index_division_digits(profile, d, start, stop):
    """The stream as it was before the one division per k: it keeps
    ``2^b u^b d^(2b+a) p^(kb)`` and divides it by ``v^b n^a`` at every index."""
    a, b, ub, vb, step, ln_p, ln_c, r_float = profile._rule
    d2b, ln_d, shift = d ** (2 * b), math.log(d), (profiles_module.GUARD_BITS + 1) * b
    ln_i = math.log(start) - ln_d
    k = max(0, math.ceil((12 * math.log(2) - ln_c + (2 + r_float) * ln_i) / ln_p))
    twice_rhs = ub * d ** (2 * b + a) * step**k << b
    need = vb * start ** (a + 2 * b) << shift
    while k and twice_rhs // step >= need:
        k -= 1
        twice_rhs //= step
    digits = []
    for n in range(start, stop):
        Qn = vb * n**a
        need = Qn * n ** (2 * b) << shift
        while twice_rhs < need:
            k += 1
            twice_rhs *= step
        W = twice_rhs // Qn // d2b
        ln_m = ln_c + k * ln_p - r_float * (math.log(n) - ln_d)
        m = int(math.exp(ln_m) + 0.5) if ln_m < 40 * math.log(2) else (iroot(b, W) + 1) // 2
        while (2 * m + 1) ** b <= W:
            m += 1
        while (2 * m - 1) ** b > W:
            m -= 1
        digits.append((m, k))
    return digits


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_one_division_per_k_gives_the_per_index_division(p):
    # floor(floor(x) / m) = floor(x / m): every (m, k) of the stream is the one
    # the per-index division gave, from the start and at one-index reads far out
    dom = PerfectPoly(p, "p-power")
    ranges = 0
    for mu in MU_UNIVERSE + [Q(1, 100), Q(1, 50), Q(1, 200), Q(99, 100)]:
        profile = ProfileElement.for_exponent(mu, dom)
        for d in (1, p, p * p):
            for start, stop in ((d, d + 64), (1023, 1024), (5000, 5001)):
                assert profile._digits(d, start, stop) == per_index_division_digits(
                    profile, d, start, stop), (mu, d, start)
                ranges += 1
    assert ranges == 27 * 3 * 3


def test_the_remainder_decides_k_at_a_tight_index():
    # c = 116509/12, r = 1, i = 4/3: tau = 7281.8125 just meets 2^12 i^2 = 7281.78 at
    # k = 0; a quotient floor(2^b u^b d^a p^(kb) / v^b) scaled by d^(2b) after the
    # division, which drops the remainder's share, would step k to 1
    profile = ProfileElement(PerfectPoly(3, "p-power"), Q(116509, 12), Q(1))
    assert profile._digits(3, 4, 5) == per_index_division_digits(profile, 3, 4, 5) == [(7282, 0)]


def test_digit_exponent_rounds_exact_ties_half_up():
    # mu = 1/2: c = 1/4 and r = 1, so tau = d / (4 n) at i = n/d, and tau p^k is
    # a half-integer at i = 2^14 / d (d odd, 13005 <= d < 2^14) for p = 2 and at
    # i = 3^j / (2 t) (t odd, prime to 3) for p = 3
    ties = {2: [Q(2**14, d) for d in (13005, 13007, 14001, 16383)] + [Q(2**15, 20643)],
            3: [Q(3, 2), Q(9, 2), Q(27, 10), Q(81, 14), Q(3**9, 2)]}
    for p, indices in ties.items():
        profile = ProfileElement.for_exponent(Q(1, 2), PerfectPoly(p, "p-power"))
        for i in indices:
            tau = profile.c / i
            k = 0
            while tau * p**k < 2**12 * i * i:
                k += 1
            twice = 2 * tau * p**k
            assert twice.denominator == 1 and twice.numerator % 2 == 1, (p, i)
            q = profile.digit_exponent(i)
            assert q == Q((twice.numerator + 1) // 2, p**k) == reference_digit_exponent(profile, i)


def test_profile_identity_ignores_precomputed_rule():
    dom = PerfectPoly(2, "p-power")
    half = ProfileElement.for_exponent(Q(1, 2), dom)
    assert repr(half) == (
        "ProfileElement(domain=PerfectPoly(p=2, denominators='p-power'), "
        "c=Fraction(1, 4), r=Fraction(1, 1))"
    )
    for mu in (Q(1, 2), Q(1, 8), Q(15, 16)):
        profile = ProfileElement.for_exponent(mu, dom)
        twin = ProfileElement(dom, profile.c, profile.r)
        assert twin == profile and twin is not profile
        assert hash(twin) == hash(profile) == hash((dom, profile.c, profile.r))
        assert "_rule" not in repr(profile)
        assert repr(profile) == (
            f"ProfileElement(domain={dom!r}, c={profile.c!r}, r={profile.r!r})"
        )
    assert half != ProfileElement(PerfectPoly(3, "p-power"), half.c, half.r)


def test_digit_index_must_be_rational():
    profile = ProfileElement.for_exponent(Q(1, 2), P2)
    for bad in (1.5, 2.0, "2", None, True, False):
        with pytest.raises(ValueError, match=f"got {bad!r}"):
            profile.digit_exponent(bad)
        with pytest.raises(ValueError, match=f"got {bad!r}"):
            deviation_within_bound(profile, bad, Q(1, 8))
    assert profile.digit_exponent(2) == profile.digit_exponent(Q(2)) == Q(1, 8)


@pytest.mark.parametrize("name", ["c", "r"])
@pytest.mark.parametrize("bad", [0.25, "1/4", None])
def test_profile_constants_must_be_rational(name, bad):
    fields = {"c": Q(1), "r": Q(1), name: bad}
    with pytest.raises(ValueError, match=f"profile {name} must be an int or a Fraction, got {bad!r}"):
        ProfileElement(P2, **fields)


@pytest.mark.parametrize("name", ["c", "r"])
@pytest.mark.parametrize("bad", [True, False])
def test_profile_constants_reject_bools(name, bad):
    fields = {"c": Q(1), "r": Q(1), name: bad}
    with pytest.raises(ValueError, match=f"profile {name} must be an int or a Fraction, got {bad!r}"):
        ProfileElement(P2, **fields)


@pytest.mark.parametrize("bad", [0.5, True])
def test_bool_and_float_profile_inputs_are_rejected(bad):
    # supremum_example(True, 3) used to return limit 3, and inverse_legendre_power(0.5)
    # and materialize(prof, 2, 0.5) passed silently
    prof = ProfileElement.for_exponent(Q(1, 2), P2)
    calls = [
        lambda: inverse_legendre_power(bad),
        lambda: ProfileElement.for_exponent(bad, P2),
        lambda: chain_report([bad], depth=4),
        lambda: chain_report([Q(1, 4), bad], depth=4),
        lambda: supremum_example(bad, 3),
        lambda: supremum_example(Q(1), 3, delta=lambda n: bad),
        lambda: discretely_approximate([(1, Q(2)), (2, bad)], P2),
        lambda: materialize(prof, 2, bad),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="exact rational"):
            call()
    # the exact spellings stay accepted
    assert materialize(prof, 2, "1") == materialize(prof, 2)
    assert supremum_example("1/2", 2)[1] == 2
    assert chain_report(["1/2"], depth=4) == chain_report([Q(1, 2)], depth=4)


def test_mu_is_exact_for_int_rate():
    int_rate = ProfileElement(P2, Q(1, 4), 1)
    assert type(int_rate.mu) is Q and int_rate.mu == Q(1, 2)
    law = legendre_power_law(int_rate)
    assert type(law.exponent) is Q
    assert law == legendre_power_law(ProfileElement(P2, Q(1, 4), Q(1)))
    assert ProfileElement(P2, 3, 2).mu == Q(2, 3)


def _reference_reads(profile, depth):
    """The ``(start, stop)`` reads chain_report makes of one profile, worked
    out on Fractions: chunks of 1, 2, 4, ... indices, each followed, while
    the window is still open, by a read of q_E at its last index E, which
    ends the window at ``floor(V / s_min) - floor(q_E (1 - 2^-G) / s_min) + 1``
    for V the least ``q_i + s_min i`` read so far."""
    s_min = min(profiles_module.RATIO_GRID)
    shrink = 1 - Q(1, 2**profiles_module.GUARD_BITS)
    q = profile.digit_exponent
    reads, n, stop, least = [], 1, depth + 1, []
    while n < stop:
        end = min(stop, 2 * n)
        reads.append((n, end))
        least = [min(least + [q(i) + s_min * i for i in range(n, end)])]
        n = end
        if n < stop:
            reads.append((stop - 1, stop))
            stop = min(stop, least[0] // s_min - q(stop - 1) * shrink // s_min + 1)
    return reads


@pytest.mark.parametrize("p", [2, 3])
def test_chain_report_values_each_digit_once(p, monkeypatch):
    # each digit is read from the integer rule, one profile at a time, with no
    # series and no coefficient valuation.  The chunks of a profile cover
    # 1..end once, each followed by one read of q_E at the window's last
    # index E, exactly as the Fraction reference gives them.  The bound they
    # rest on holds: every j <= E has q_j >= q_E (1 - 2^-G), and every index
    # past the window lies strictly above some digit read at every sample
    dom = PerfectPoly(p, "p-power")
    grid, depth = [Q(1, 100), Q(1, 16), Q(1, 2), Q(11, 12)], 96
    calls, streams = [], []
    original, rule = PerfectPoly.coeff_valuation, ProfileElement._digits

    def counted(self, a):
        calls.append(a)
        return original(self, a)

    def counted_rule(self, d, start, stop):
        streams.append((self.mu, d, start, stop))
        return rule(self, d, start, stop)

    def no_series(*args):
        raise AssertionError("chain_report built a series")

    monkeypatch.setattr(PerfectPoly, "coeff_valuation", counted)
    monkeypatch.setattr(ProfileElement, "_digits", counted_rule)
    monkeypatch.setattr(profiles_module, "materialize", no_series)
    report = chain_report(grid, depth=depth, domain=dom)
    assert len(calls) == 0
    monkeypatch.undo()
    assert PerfectPoly.coeff_valuation is original
    assert [mu for mu, *_ in streams] == sorted(mu for mu, *_ in streams)  # one profile at a time
    assert all(d == 1 for _, d, _, _ in streams)
    shrink = 1 - Q(1, 2**profiles_module.GUARD_BITS)
    read_to = {}
    for mu in grid:
        profile = ProfileElement.for_exponent(mu, dom)
        mine = [(start, stop) for m, _, start, stop in streams if m == mu]
        assert mine == _reference_reads(profile, depth)
        chunks, tails = mine[0::2], mine[1::2]
        assert [start for start, _ in chunks] == [1] + [stop for _, stop in chunks[:-1]]
        assert all(stop == start + 1 for start, stop in tails)
        assert tails[0] == (depth, depth + 1)  # the first window end is the depth
        q = [None] + [profile.digit_exponent(i) for i in range(1, depth + 1)]
        for E, _ in tails:
            assert min(q[1:E + 1]) >= q[E] * shrink, (mu, E)
        end = chunks[-1][1] - 1
        for s in profiles_module.RATIO_GRID:
            best = min(q[i] + s * i for i in range(1, end + 1))
            assert all(q[j] + s * j > best for j in range(end + 1, depth + 1)), (mu, s)
        read_to[mu] = end
    assert read_to[Q(1, 16)] < depth  # q_i > 0 alone cuts at about 663, past 96
    assert read_to[Q(11, 12)] <= 3
    expected = [(mu, in_m(materialize(ProfileElement.for_exponent(mu, dom), depth)))
                for mu in grid]
    assert list(report.membership) == expected
    assert report.all_in_ideal


def _report_from_series(grid, depth, dom):
    """The chain report assembled from each materialized series and its Newton polygon."""
    pairs, membership, ratios = [], [], []
    for idx, mu in enumerate(grid):
        profile = ProfileElement.for_exponent(mu, dom)
        law = legendre_power_law(profile)
        for lam in grid[idx + 1:]:
            verdict = classify(law, PowerLaw(Q(1), lam)).verdict
            pairs.append((mu, lam, verdict, verdict == "omega"))
        f = materialize(profile, depth)
        poly = newton_polygon(f)
        membership.append((mu, in_m(f)))
        norm = float(law.coeff)
        ratios.append((mu, tuple((s, float(legendre_eval(poly, s)) / (norm * float(s) ** float(mu)))
                                 for s in profiles_module.RATIO_GRID)))
    return ChainReport(tuple(grid), depth, tuple(pairs), tuple(membership), tuple(ratios))


@pytest.mark.parametrize("p, depth, grid", [
    *[pytest.param(p, depth, [Q(1, 16), Q(1, 3), Q(1, 2), Q(3, 4), Q(11, 12)], id=f"{depth}-{p}")
      for p in (2, 3) for depth in (1, 2, 7, 64, 300)],
    # the benchmark's extremes: 1/16 (b = 15) and 15/16 (K = 188) at depth 1024, p = 2
    pytest.param(2, 1024, [Q(1, 16), Q(15, 16)], id="1024-2-extremes"),
    pytest.param(3, 300, [Q(15, 16)], id="300-3-extremes"),
])
def test_chain_report_equals_the_materialized_report(p, depth, grid):
    dom = PerfectPoly(p, "p-power")
    assert chain_report(grid, depth=depth, domain=dom) == _report_from_series(grid, depth, dom)


def _full_read_report(grid, depth, dom, legendre):
    """The chain report read from every digit 1..depth: the body chain_report
    had before its window, with each exact sample passed to ``legendre``."""
    pairs, membership, ratios = [], [], []
    for idx, mu in enumerate(grid):
        profile = ProfileElement.for_exponent(mu, dom)
        law = legendre_power_law(profile)
        for lam in grid[idx + 1:]:
            verdict = classify(law, PowerLaw(Q(1), lam)).verdict
            pairs.append((mu, lam, verdict, verdict == "omega"))
        digits = profile._digits(1, 1, depth + 1)
        K, p = digits[-1][1], dom.p
        poly = lower_hull(IndexPoints([m * p ** (K - k) for m, k in digits], p**K))
        membership.append((mu, poly.y_last > 0))
        c_norm = float(law.coeff)
        ratios.append((mu, tuple((s, float(legendre(poly, s)) / (c_norm * float(s) ** float(mu)))
                                 for s in profiles_module.RATIO_GRID)))
    return ChainReport(tuple(grid), depth, tuple(pairs), tuple(membership), tuple(ratios))


# every exponent that the profile-chain benchmark draws, and the acceptance grid
BENCH_MUS = sorted({Q(n, d) for d in (4, 8, 12, 16) for n in range(1, d)})
MU_GRID = [Q(k, 8) for k in range(1, 8)]


def _recording(samples):
    """legendre_eval, keeping each exact sample in ``samples``."""
    def recorded(F, s):
        samples.append(legendre_eval(F, s))
        return samples[-1]
    return recorded


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("depth", [1, 2, 5, 16, 100, 512, 1024])
def test_windowed_chain_report_equals_a_full_read(p, depth, monkeypatch):
    # depths 1, 2 and 5 cap the window; at mu = 1/100 and 1/50 (r near 0)
    # the digits barely fall, and the (1 - 2^-G) factor carries the cut
    dom = PerfectPoly(p, "p-power")
    for grid in (MU_GRID, BENCH_MUS, [Q(1, 100), Q(1, 50)]):
        full, windowed = [], []
        expected = _full_read_report(grid, depth, dom, _recording(full))
        monkeypatch.setattr(profiles_module, "legendre_eval", _recording(windowed))
        assert chain_report(grid, depth=depth, domain=dom) == expected
        monkeypatch.undo()
        assert windowed == full  # the exact samples, not only their floats
        assert len(full) == len(grid) * len(profiles_module.RATIO_GRID)


@pytest.mark.parametrize("p", [2, 3])
def test_least_digit_up_to_each_depth_is_the_last(p):
    # on these exponents q_i strictly decreases, so the least digit over
    # 1..depth is q_depth, and every m >= 2^GUARD_BITS; chain_report needs
    # only the latter, and the bound q_j >= q_E (1 - 2^-G) for j <= E
    dom = PerfectPoly(p, "p-power")
    for mu in sorted(set(BENCH_MUS) | set(MU_GRID)):
        digits = ProfileElement.for_exponent(mu, dom)._digits(1, 1, 1025)
        assert min(m for m, _ in digits) >= 2**profiles_module.GUARD_BITS
        q = [Q(m, p**k) for m, k in digits]
        assert all(a > b for a, b in zip(q, q[1:])), mu


def test_chain_report_reads_the_same_digits_at_any_depth(monkeypatch):
    # the window closes below 1 026 digits whatever the depth, and the 23
    # benchmark exponents read at most 1 000 indices in all, one-index reads
    # included: count what the rule is asked for, never the wall time
    read, rule = [], ProfileElement._digits

    def counted_rule(self, d, start, stop):
        assert stop - start < 1030, "a stream past the window"
        read.append((self.mu, start, stop))
        return rule(self, d, start, stop)

    monkeypatch.setattr(ProfileElement, "_digits", counted_rule)
    totals = []
    for depth in (10**3, 1024, 10**6, 10**20):
        read.clear()
        report = chain_report(BENCH_MUS, depth=depth)
        assert report.all_in_ideal and report.depth == depth
        per_profile = {mu: sum(stop - start for m, start, stop in read if m == mu) for mu in BENCH_MUS}
        assert max(per_profile.values()) < 1030
        assert [(start, stop) for _, start, stop in read if start == depth] == [(depth, depth + 1)] * len(BENCH_MUS)
        totals.append(sum(per_profile.values()))
    assert totals[1] <= 1000
    assert totals[0] == totals[1] == totals[2] == totals[3]


def test_mixed_chain_report_depends_on_the_domain_only_through_p():
    grid, mixed = [Q(1, 4), Q(1, 2), Q(7, 8)], MixedPoly(3, 4)
    expected = chain_report(grid, depth=16, domain=PerfectPoly(3, "p-power"))
    assert chain_report(grid, depth=16, domain=mixed) == expected
    # the element itself overflows p^4 at that depth; the report never forms it
    with pytest.raises(PrecisionLossError):
        materialize(ProfileElement.for_exponent(Q(1, 2), mixed), 16)


def test_polygon_last_ordinate_decides_membership():
    # chain_report reads membership off the polygon: its last ordinate is the
    # least finite coefficient valuation
    rng = random.Random(5)
    dom = MixedPoly(3, 4)
    seen = set()
    for _ in range(200):
        terms = [(Q(rng.randrange(0, 40), rng.choice((1, 3, 9))),
                  dom.poly([(Q(rng.randrange(0, 6), rng.choice((1, 3))), rng.randrange(1, 81))
                            for _ in range(rng.randrange(1, 3))]))
                 for _ in range(rng.randrange(1, 8))]
        f = Series.make(dom, Mode.FORMAL, terms)
        if f.is_zero or all(dom.coeff_valuation(a) == INF for _, a in f.terms):
            continue
        seen.add(in_m(f))
        assert (newton_polygon(f).y_last > 0) == in_m(f)
    assert seen == {True, False}


# --- depths and target indices -------------------------------------------


@pytest.mark.parametrize("bad", [True, False, 0, -2, 2.5, Q(5, 2), "3", None])
def test_depth_must_be_an_integer_at_least_one(bad):
    # checked before any work: the bad grid and the bad s behind it go unread
    message = re.escape(f"depth must be an integer >= 1, got {bad!r}")
    profile = ProfileElement.for_exponent(Q(1, 2), P2)
    for call in (lambda: materialize(profile, bad),
                 lambda: chain_report([Q(3, 2)], depth=bad),
                 lambda: supremum_example(-1, bad)):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()


def test_integral_fraction_depth_is_an_int():
    report = chain_report([Q(1, 2)], depth=Q(4))
    assert report == chain_report([Q(1, 2)], depth=4) and type(report.depth) is int


@pytest.mark.parametrize("bad", [0, Q(3, 2), Q(0), True, 2.0, "2", None])
def test_discrete_approximation_rejects_non_integer_indices(bad):
    # an index is never truncated (3/2 is no node 1) and never reaches the
    # deviation bound's division (0); it is checked before the domain and
    # before the target values
    for domain in (P2, PadicDigits(2)):
        message = f"target index must be an integer >= 1, got {bad!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            discretely_approximate([(1, Q(1)), (bad, Q(1, 2)), (5, Q(-1))], domain)


def test_discrete_approximation_accepts_integral_fraction_indices():
    targets = [(1, Q(1)), (2, Q(1, 2)), (3, Q(1, 3))]
    want = discretely_approximate(targets, P2)
    assert discretely_approximate([(Q(i), g) for i, g in targets], P2) == want
    assert all(type(i) is int for i, _, _, _ in want[1].nodes)


def test_discrete_approximation_negative_index_fails_at_once():
    # at i = -1 the deviation bound is negative, so no digit meets it and the
    # digit search would never end: the call runs in a child with a timeout
    code = (
        "from fractions import Fraction\n"
        "from mnseries import PerfectPoly, discretely_approximate\n"
        "discretely_approximate([(-1, Fraction(1))], PerfectPoly(2, 'p-power'))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(mnseries.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=env)
    assert proc.returncode == 1
    assert proc.stderr.rstrip().endswith("ValueError: target index must be an integer >= 1, got -1")


# --- the digit rule's certificates move a wrong guess either way ----------


@pytest.mark.parametrize("p", [2, 3, 5])
def test_digit_certificates_correct_k_guesses_up_and_down(p, monkeypatch):
    # ln c shifted by j ln p moves the float guess for k by -j, so the exact
    # certificate must step k up (j > 0) or down (j < 0) to the true value, and
    # a stream must go on from there; with no float guess for m, every m starts
    # from iroot.  The last profile's tau = 110592 / i meets 2^12 i^2 exactly at
    # i = 3, where k = 0 is enough
    dom = PerfectPoly(p, "p-power")
    indices = [1, 2, 3, 7, 100, 1023, Q(2 * p + 1, p), Q(10**6 + 1, p**3),
               2**53 + 1, 10**30, Q(10**40 + 1, p**2)]
    profiles = [ProfileElement.for_exponent(mu, dom)
                for mu in (Q(1, 16), Q(1, 3), Q(1, 2), Q(2, 3), Q(15, 16))]
    profiles.append(ProfileElement(dom, Q(110592), Q(1)))
    assert profiles[-1].digit_exponent(3) == Q(36864) == reference_digit_exponent(profiles[-1], 3)
    want = {(j, i): prof.digit_exponent(i) for j, prof in enumerate(profiles) for i in indices}
    streams = [prof._digits(d, d, 65 * d) for prof in profiles for d in (1, p)]
    monkeypatch.setattr(profiles_module, "_FLOAT_GUESS_MAX", -math.inf)
    for shift in (-2, -1, 1, 2):
        twins = []
        for j, prof in enumerate(profiles):
            rule = prof._rule
            twin = ProfileElement(dom, prof.c, prof.r)
            object.__setattr__(twin, "_rule", rule._replace(ln_c=rule.ln_c + shift * rule.ln_p))
            twins.append(twin)
            for i in indices:
                assert twin.digit_exponent(i) == want[j, i], (prof.mu, i, shift)
        assert [twin._digits(d, d, 65 * d) for twin in twins for d in (1, p)] == streams, shift
