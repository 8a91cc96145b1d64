"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Every tolerance is pinned here.  Criterion 7 is asserted exactly as
specified: the Legendre ratio of each depth-1024 materialized profile
stays within [0.95, 1.05] of s^mu for s = 2^-4 ... 2^-10.  It materializes
on the refined index lattice (1/8)Z, which the series' exponent group
Z[1/p] allows; with digits at integer indices only, the window is out of
reach at the steep-decay corner (mu = 7/8, s = 2^-4 and 2^-5) for any
choice of digits, as the proof in ``materialize`` shows.  The report line
also prints the worst integer-lattice ratio, for information only.
"""

import math
import random
import time
from fractions import Fraction as Q

from mnseries import (
    MixedPoly,
    Mode,
    PadicDigits,
    PerfectPoly,
    Series,
    add,
    argnorm,
    bar_witness,
    box_witness,
    chain_report,
    gauss_valuation,
    in_m,
    inverse_legendre_power,
    legendre_eval,
    legendre_power_law,
    localize,
    materialize,
    mul,
    newton_polygon,
    ProfileElement,
    supremum_example,
    term_values,
)
from mnseries.cli import main as cli_main
from mnseries.verify import _rand_series

S_GRID = [Q(1, 4), Q(1, 2), Q(1), Q(3, 2), Q(2)]
MU_GRID = [Q(k, 8) for k in range(1, 8)]


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {name}: {status}{suffix}")


# --- criteria ---------------------------------------------------------------


def test_criterion_01_multiplicativity():
    start = time.monotonic()
    rng = random.Random(101)
    bad = 0
    for _ in range(1000):
        dom = PerfectPoly(rng.choice([2, 3, 5]), "p-power")
        f, g = _rand_series(rng, dom, Mode.FORMAL), _rand_series(rng, dom, Mode.FORMAL)
        fg, _ = mul(f, g)
        for s in S_GRID:
            vf, _ = gauss_valuation(f, s)
            vg, _ = gauss_valuation(g, s)
            if gauss_valuation(fg, s)[0] != vf + vg:
                bad += 1
    for _ in range(500):
        dom = PadicDigits(rng.choice([2, 3, 5]), 32)
        f, g = _rand_series(rng, dom, Mode.ARITHMETIC), _rand_series(rng, dom, Mode.ARITHMETIC)
        fg, _ = mul(f, g)
        for s in S_GRID:
            vf, _ = gauss_valuation(f, s)
            vg, _ = gauss_valuation(g, s)
            if gauss_valuation(fg, s)[0] != vf + vg:
                bad += 1
    elapsed = time.monotonic() - start
    ok = bad == 0 and elapsed < 30
    report(1, "multiplicativity", ok, f"failures={bad} elapsed={elapsed:.1f}s")
    assert bad == 0
    assert elapsed < 30


def test_criterion_02_triangle_and_submultiplicativity():
    rng = random.Random(202)
    bad = 0
    for _ in range(1000):
        dom = PerfectPoly(rng.choice([2, 3, 5]), "p-power")
        f, g = _rand_series(rng, dom, Mode.FORMAL), _rand_series(rng, dom, Mode.FORMAL)
        h = add(f, g)
        fg, _ = mul(f, g)
        for s in S_GRID:
            vf, vg = gauss_valuation(f, s)[0], gauss_valuation(g, s)[0]
            vh, vfg = gauss_valuation(h, s)[0], gauss_valuation(fg, s)[0]
            if not vh >= min(vf, vg):
                bad += 1
            if vf != vg and vh != min(vf, vg):
                bad += 1
            if not vfg >= vf + vg:
                bad += 1
    for _ in range(500):
        kind = rng.choice(["padic", "mixed"])
        if kind == "padic":
            dom = PadicDigits(rng.choice([2, 3, 5]), 32)
            f, g = _rand_series(rng, dom, Mode.ARITHMETIC), _rand_series(rng, dom, Mode.ARITHMETIC)
        else:
            dom = MixedPoly(rng.choice([2, 3]), 32, "p-power")
            f, g = (_rand_series(rng, dom, Mode.ARITHMETIC, max_terms=4),
                    _rand_series(rng, dom, Mode.ARITHMETIC, max_terms=4))
        h = add(f, g)
        fg, _ = mul(f, g)
        for s in S_GRID:
            vf, vg = gauss_valuation(f, s)[0], gauss_valuation(g, s)[0]
            vh, vfg = gauss_valuation(h, s)[0], gauss_valuation(fg, s)[0]
            if not vh >= min(vf, vg):
                bad += 1
            if vf != vg and vh != min(vf, vg):
                bad += 1
            if not vfg >= vf + vg:  # inequality only: MixedPoly asserts no equality
                bad += 1
    ok = bad == 0
    report(2, "triangle-submultiplicativity", ok, f"failures={bad}")
    assert ok


def test_criterion_03_diagram_commutation():
    rng = random.Random(303)
    bad = 0
    for i in range(1000):
        if i % 5 < 3:
            dom = PerfectPoly(rng.choice([2, 3, 5]), "p-power")
            f = _rand_series(rng, dom, Mode.FORMAL, nonzero=True)
        elif i % 5 == 3:
            dom = PadicDigits(rng.choice([2, 3, 5]), 32)
            f = _rand_series(rng, dom, Mode.ARITHMETIC, nonzero=True)
        else:
            dom = MixedPoly(rng.choice([2, 3]), 32, "p-power")
            f = _rand_series(rng, dom, Mode.ARITHMETIC, max_terms=4, nonzero=True)
        poly = newton_polygon(f)
        for s in S_GRID:
            if legendre_eval(poly, s) != gauss_valuation(f, s)[0]:
                bad += 1
    ok = bad == 0
    report(3, "diagram-commutation", ok, f"failures={bad}")
    assert ok


def test_criterion_04_carrying_oracle():
    rng = random.Random(404)
    bad = 0
    for _ in range(500):
        p = rng.choice([2, 3, 5])
        dom = PadicDigits(p, 32)
        f = _rand_series(rng, dom, Mode.ARITHMETIC, integer_exponents=True)
        g = _rand_series(rng, dom, Mode.ARITHMETIC, integer_exponents=True)
        prod, _ = mul(f, g)
        int_f = sum(a * p ** int(e) for e, a in f.terms)
        int_g = sum(a * p ** int(e) for e, a in g.terms)
        n = (int_f * int_g) % p**32
        expected, idx = [], 0
        while n:
            n, d = divmod(n, p)
            if d:
                expected.append((Q(idx), d))
            idx += 1
        if prod.terms != tuple(expected):
            bad += 1
    ok = bad == 0
    report(4, "carrying-oracle", ok, f"failures={bad}")
    assert ok


def test_criterion_05_supremum_example():
    values, limit = supremum_example(Q(1), 100)
    ok = (
        limit == 3
        and len(values) == 100
        and all(v > 3 for v in values)
        and all(b < a for a, b in zip(values, values[1:]))
    )
    report(5, "supremum-example", ok, f"first={values[0]} last={values[-1]} limit={limit}")
    assert ok


def test_criterion_06_inverse_legendre_constants():
    c, r = inverse_legendre_power(Q(1, 2))
    exact_ok = (c, r) == (Q(1, 4), Q(1))

    def oracle(s):  # independent geometric-grid minimization of 1/(4x) + s*x
        best = None
        x = 1e-6
        while x < 1e6:
            v = 0.25 / x + s * x
            best = v if best is None else min(best, v)
            x *= 1.0005
        return best

    max_rel = 0.0
    for j in range(1, 21):
        s = j / 20
        max_rel = max(max_rel, abs(oracle(s) - math.sqrt(s)) / math.sqrt(s))
    oracle_ok = max_rel <= 1e-6
    ok = exact_ok and oracle_ok
    report(6, "inverse-legendre", ok, f"c={c} r={r} max_rel={max_rel:.2e}")
    assert ok


def test_criterion_07_asymptotic_realization():
    # Digits sit on the index lattice (1/8)Z inside Z[1/p].  Over a lattice of
    # step h the polygon's minimum exceeds s^mu by about r h^2 / (8 x*^2)
    # relative, x* = (c r / s)^(1/(r+1)) the continuous minimizer; the worst
    # sample (mu = 7/8, s = 2^-4, x* ~ 1.24) gives about 0.57 h^2, i.e. 0.9%
    # at h = 1/8.  On integer indices (h = 1) no choice of digits can meet
    # the window at mu = 7/8 (see materialize); that ratio is reported only.
    start = time.monotonic()
    step = Q(1, 8)
    violations = []
    integer_worst = (0.0, None)
    for mu in MU_GRID:
        profile = ProfileElement.for_exponent(mu, PerfectPoly(2, "p-power"))
        poly = newton_polygon(materialize(profile, 1024, step))
        integer_poly = newton_polygon(materialize(profile, 1024))
        c_norm = float(legendre_power_law(profile).coeff)
        for k in range(4, 11):
            s = Q(1, 2**k)
            ratio = float(legendre_eval(poly, s)) / (c_norm * float(s) ** float(mu))
            if not 0.95 <= ratio <= 1.05:
                violations.append((str(mu), k, round(ratio, 5)))
            integer_ratio = float(legendre_eval(integer_poly, s)) / (
                c_norm * float(s) ** float(mu)
            )
            if abs(integer_ratio - 1) > integer_worst[0]:
                integer_worst = (abs(integer_ratio - 1), (str(mu), k, round(integer_ratio, 5)))
    elapsed = time.monotonic() - start
    ok = not violations and elapsed < 60
    report(
        7,
        "asymptotic-realization",
        ok,
        f"step={step} violations={violations} elapsed={elapsed:.1f}s "
        f"integer-lattice worst={integer_worst[1]}",
    )
    assert elapsed < 60
    assert not violations, (
        f"step-{step} materialization exceeds the [0.95, 1.05] window at "
        f"{violations}; the second-order lattice error bound is about 0.9%"
    )


def test_criterion_08_chain_separation():
    rep = chain_report(MU_GRID, depth=128)
    pairs_ok = len(rep.pairs) == 21 and rep.all_separated
    ideal_ok = rep.all_in_ideal
    pi = Series.make(PadicDigits(2, 32), Mode.ARITHMETIC, [(Q(1), 1)])
    pi_ok = not in_m(pi)
    ok = pairs_ok and ideal_ok and pi_ok
    report(
        8,
        "chain-separation",
        ok,
        f"pairs={len(rep.pairs)} separated={rep.all_separated} "
        f"ideal={rep.all_in_ideal} pi_not_in_m={pi_ok}",
    )
    assert ok


def test_criterion_09_witness_suites():
    rng = random.Random(909)
    bad = 0
    for _ in range(1000):
        dom = PerfectPoly(rng.choice([2, 3, 5]), "p-power")
        f = _rand_series(rng, dom, Mode.FORMAL, nonzero=True)
        s = rng.choice(S_GRID)
        a_star = argnorm(f, s)
        v0, _ = gauss_valuation(f, s)
        eps_a, delta_a = box_witness(f, s)
        for i, v in term_values(f, s):
            if a_star < i < a_star + eps_a and v <= v0 + delta_a:
                bad += 1
        eps = rng.choice([Q(1, 4), Q(1, 2), Q(1)])
        delta_b = bar_witness(f, s, eps)
        if not delta_b > 0:
            bad += 1
        for i, v in term_values(f, s):
            if i < a_star - eps and v <= v0 + delta_b:
                bad += 1
    for _ in range(500):
        dom = PerfectPoly(rng.choice([2, 3, 5]), "p-power")
        f = _rand_series(rng, dom, Mode.FORMAL, nonzero=True)
        g = _rand_series(rng, dom, Mode.FORMAL, nonzero=True)
        s = rng.choice(S_GRID)
        _, prediction = localize(f, g, s)
        fg, _ = mul(f, g)
        if prediction != gauss_valuation(fg, s)[0]:
            bad += 1
    ok = bad == 0
    report(9, "witness-suites", ok, f"failures={bad}")
    assert ok


def test_criterion_10_determinism(capsys):
    code1 = cli_main(["verify", "all", "--seed", "0"])
    out1 = capsys.readouterr().out
    code2 = cli_main(["verify", "all", "--seed", "0"])
    out2 = capsys.readouterr().out
    ok = code1 == code2 == 0 and out1 == out2
    with capsys.disabled():
        report(10, "determinism", ok, f"bytes={len(out1)} identical={out1 == out2}")
    assert ok
