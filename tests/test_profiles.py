"""Profiles, inverse Legendre constants, classification, chains, ideals."""

import math
import random
from fractions import Fraction as Q

import pytest

from mnseries import (
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


def test_inverse_legendre_domain():
    for bad in (0, 1, Q(3, 2), -1):
        with pytest.raises(ValueError):
            inverse_legendre_power(bad)


def test_grid_minimization_oracle_confirms_constant():
    c, r = inverse_legendre_power(Q(1, 2))
    for j in range(1, 21):
        s = j / 20
        got = minimize_on_grid(float(c), float(r), s)
        assert abs(got - math.sqrt(s)) <= 1e-6 * math.sqrt(s)


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
