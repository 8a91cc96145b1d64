"""Seeded inputs and independent output checks for the three workloads.

Inputs are generated as plain text and data from ``(workload, seed, op
index)`` alone; nothing here imports ``mnseries`` except the profile-chain
checker, which asks the library for the materialized points it then
brute-forces.  Every workload is an endless stream of distinct ops.  Op
``k`` belongs to size class ``k % len(classes)``, so a run made of whole
cycles always has the same mix of input sizes and only the random content
changes with the seed.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# ---------------------------------------------------------------------------
# carry-mul: arithmetic-mode products through the CLI

# (domain, p, exponent denominator of each factor, fewest raw terms per factor).
# Denominators (2, 2) give two cosets and long carry chains; (8, 8) give
# eight cosets and a large output support, so a per-coset gain and a trace
# gain separate.  Fixed denominators and frontier per class keep the cost of
# a class steady from seed to seed.
FEW_COSETS = (2, 2)
MANY_COSETS = (8, 8)
CARRY_CLASSES: Tuple[Tuple[str, int, Tuple[int, int], int], ...] = tuple(
    (domain, p, dens, n)
    for domain, p in (("padic", 2), ("padic", 3), ("padic", 5), ("mixed", 2), ("mixed", 3))
    for dens in (FEW_COSETS, MANY_COSETS)
    for n in (8, 14, 20, 26)
)
# A factor of class n has n to n + 6 raw terms, so sizes cover 8..32 with no
# gaps and the latency quantiles do not sit on a jump between classes.
TERMS_SPREAD = 7
# Frontier O(p^12): every output index stays below 24 < N = 32, so no
# product can raise PrecisionLossError.
FRONTIER = 12

def _rat(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _raw_factor(rng: random.Random, domain: str, p: int, d: int, n: int):
    """n raw terms below O(p^12); a unit, so the product frontier is always 12.

    Exponents are distinct while the lattice below the frontier has room, so
    the canonical size of a factor varies little within its class.
    """
    k = FRONTIER
    slots = [0] + rng.sample(range(1, k * d), min(n, k * d) - 1)
    slots += [rng.randrange(k * d) for _ in range(n - len(slots))]
    terms = []
    for slot in slots:
        unit = slot == 0  # the constant term is not divisible by p
        if domain == "padic":
            coeff = _integer(rng, p, 3, unit)
        else:
            monos = []
            for j in range(rng.randrange(1, 4)):
                xd = p ** rng.randrange(0, 3)
                xe = Fraction(rng.randrange(0, 4 * xd + 1), xd)
                monos.append((xe, _integer(rng, p, 2, unit and j == 0)))
            coeff = tuple(monos)
        terms.append((Fraction(slot, d), coeff))
    return terms, k


def _integer(rng: random.Random, p: int, digits: int, unit: bool) -> int:
    """A positive integer below p^digits; not divisible by p when ``unit``."""
    if unit:
        return rng.randrange(1, p) + p * rng.randrange(p ** (digits - 1))
    return rng.randrange(1, p**digits)


def _raw_literal(terms, k: int) -> str:
    parts = []
    for e, coeff in terms:
        if isinstance(coeff, int):
            c = str(coeff)
        else:
            c = "(" + " + ".join(f"{cc}*x^{{{_rat(xe)}}}" for xe, cc in coeff) + ")"
        parts.append(f"{c}*p^{{{_rat(e)}}}")
    return " + ".join(parts) + f" + O(p^{{{k}}})"


def _coset_integers(terms, p: int, prec: int) -> Dict[Tuple[Fraction, Fraction], int]:
    """Exact integer per (coset, x-exponent) of a raw factor below its frontier."""
    acc: Dict[Tuple[Fraction, Fraction], int] = {}
    for e, coeff in terms:
        if e >= prec:
            continue
        n = e.numerator // e.denominator
        gamma = e - n
        monos = ((Fraction(0), coeff),) if isinstance(coeff, int) else coeff
        for xe, c in monos:
            key = (gamma, xe)
            acc[key] = acc.get(key, 0) + c * p**n
    return acc


def _digits(acc: Dict[Tuple[Fraction, Fraction], int], p: int, prec) -> Dict[Fraction, List[Tuple[Fraction, int]]]:
    """Base-p digits of each coset integer, keyed by output exponent below ``prec``."""
    out: Dict[Fraction, List[Tuple[Fraction, int]]] = {}
    for (gamma, xe), total in acc.items():
        offset = 0
        while total and gamma + offset < prec:
            total, d = divmod(total, p)
            if d:
                out.setdefault(gamma + offset, []).append((xe, d))
            offset += 1
    return out


def carry_mul_expected(op: dict) -> str:
    """Product text from base-p integer arithmetic per (coset, x-exponent)."""
    p = op["p"]
    (ta, ka), (tb, kb) = op["factors"]
    ia, ib = _coset_integers(ta, p, ka), _coset_integers(tb, p, kb)
    ord_a = min(_digits(ia, p, ka), default=ka)
    ord_b = min(_digits(ib, p, kb), default=kb)
    prec = min(ka + ord_b, kb + ord_a)
    prod: Dict[Tuple[Fraction, Fraction], int] = {}
    for (ga, xa), va in ia.items():
        for (gb, xb), vb in ib.items():
            g = ga + gb
            carry = 1 if g >= 1 else 0
            key = (g - carry, xa + xb)
            prod[key] = prod.get(key, 0) + va * vb * p**carry
    digits = _digits(prod, p, prec)
    return _format_product(digits, op["domain"], prec) + "\n"


def _format_product(digits, domain: str, prec: Fraction) -> str:
    """The library's canonical print format, written out independently."""
    parts = []
    for e in sorted(digits):
        monos = sorted(digits[e])
        if domain == "padic":
            (_, d), = monos
            coeff, one = str(d), d == 1
        else:
            body = []
            for xe, c in monos:
                if xe == 0:
                    body.append(str(c))
                else:
                    xp = "x" if xe == 1 else f"x^{{{_rat(xe)}}}"
                    body.append(xp if c == 1 else f"{c}*{xp}")
            coeff = " + ".join(body)
            one = monos == [(Fraction(0), 1)]
            if e != 0 and len(body) > 1:
                coeff = f"({coeff})"
        if e == 0:
            parts.append(coeff)
            continue
        vp = "p" if e == 1 else f"p^{{{_rat(e)}}}"
        parts.append(vp if one else f"{coeff}*{vp}")
    parts.append(f"O(p^{{{_rat(Fraction(prec))}}})")
    return " + ".join(parts)


def carry_mul_op(seed: int, k: int) -> dict:
    domain, p, dens, n = CARRY_CLASSES[k % len(CARRY_CLASSES)]
    rng = random.Random(f"carry-mul:{seed}:{k}")
    n += rng.randrange(TERMS_SPREAD)
    factors = [_raw_factor(rng, domain, p, d, n) for d in dens]
    argv = ["mul", _raw_literal(*factors[0]), _raw_literal(*factors[1]),
            "--mode", "arithmetic", "--p", str(p), "--domain", domain]
    if domain == "mixed":
        argv += ["--denominators", "p-power"]
    cosets = [len({e - e.numerator // e.denominator for e, _ in t}) for t, _ in factors]
    return {
        "argv": argv, "domain": domain, "p": p, "factors": factors,
        "size": {"domain": f"{domain}-p{p}", "denominators": f"{dens[0]},{dens[1]}",
                 "terms": n, "cosets": tuple(cosets)},
    }


def carry_mul_check(op: dict, rc: int, out: str, state: dict) -> bool:
    return rc == 0 and out == carry_mul_expected(op)


# ---------------------------------------------------------------------------
# profile-chain: separation reports over exponent grids

MU_UNIVERSE: Tuple[Fraction, ...] = tuple(sorted(
    {Fraction(n, d) for d in (4, 8, 12, 16) for n in range(1, d)}
))
# One cycle splits a seeded shuffle of MU_UNIVERSE into grids of 2 or 3
# exponents and gives each grid one of the depths below, also shuffled.  So
# every cycle materializes each exponent once, the work per cycle barely
# depends on the seed, and latencies spread evenly from 128 to 1024, the
# depth of acceptance criterion 7.
CHAIN_GRID_SIZES = (3,) + (2,) * 10
CHAIN_DEPTHS = tuple(128 + round(896 * j / 10) for j in range(len(CHAIN_GRID_SIZES)))
RATIO_GRID: Tuple[Fraction, ...] = tuple(Fraction(1, 2**k) for k in range(4, 11))
MAX_DEPTH = CHAIN_DEPTHS[-1]


def profile_chain_op(seed: int, k: int) -> dict:
    cycle, j = divmod(k, len(CHAIN_GRID_SIZES))
    rng = random.Random(f"profile-chain:{seed}:{cycle}")
    mus = rng.sample(MU_UNIVERSE, len(MU_UNIVERSE))
    sizes = rng.sample(CHAIN_GRID_SIZES, len(CHAIN_GRID_SIZES))
    depth = rng.sample(CHAIN_DEPTHS, len(CHAIN_DEPTHS))[j]
    first = sum(sizes[:j])
    grid = sorted(mus[first:first + sizes[j]])
    argv = ["chain"]
    for mu in grid:
        argv += ["--mu", _rat(mu)]
    argv += ["--depth", str(depth), "--format", "json"]
    return {"argv": argv, "grid": grid, "depth": depth,
            "size": {"depth": depth, "grid": len(grid)}}


def _profile_points(mu: Fraction, state: dict) -> List[Tuple[int, Fraction]]:
    """Materialized points (i, q_i) at the largest depth; a depth-D chain uses a prefix.

    Each point is checked against the closed form ``q_i ~ c i^-r`` (deviation
    at most ``c i^-r / i``) and for membership in the ideal (``q_i > 0``).
    """
    cache = state.setdefault("points", {})
    if mu in cache:
        return cache[mu]
    mn = state["mnseries"]
    dom = mn.PerfectPoly(2, "p-power")
    series = mn.materialize(mn.ProfileElement.for_exponent(mu, dom), MAX_DEPTH)
    r = float(mu / (1 - mu))
    c = r**r / (r + 1) ** (r + 1)
    points = []
    for i, a in series.terms:
        (q, coeff), = a.monomials
        tau = c * float(i) ** -r
        if coeff != 1 or q <= 0 or abs(float(q) - tau) > tau / float(i) * (1 + 1e-9):
            points = None
            break
        points.append((int(i), q))
    if points is not None and [i for i, _ in points] != list(range(1, MAX_DEPTH + 1)):
        points = None
    cache[mu] = points
    return points


def _brute_legendre(mu: Fraction, depth: int, s: Fraction, state: dict) -> Optional[Fraction]:
    """min of q_i + s*i over every materialized point, not only hull nodes."""
    memo = state.setdefault("legendre", {})
    key = (mu, depth, s)
    if key not in memo:
        points = _profile_points(mu, state)
        if points is None:
            memo[key] = None
        else:
            pts = points[:depth]
            sf = float(s)
            approx = [float(q) + sf * i for i, q in pts]
            lo = min(approx)
            # exact comparison among every point within float noise of the minimum
            memo[key] = min(q + s * i for (i, q), v in zip(pts, approx)
                            if v <= lo * (1 + 1e-9) + 1e-300)
    return memo[key]


def profile_chain_check(op: dict, rc: int, out: str, state: dict) -> bool:
    if rc != 0:
        return False
    try:
        payload = json.loads(out)
    except ValueError:
        return False
    grid, depth = op["grid"], op["depth"]
    names = [_rat(m) for m in grid]
    expected_pairs = [
        {"mu": names[a], "lambda": names[b], "verdict": "omega", "separated": True}
        for a in range(len(grid)) for b in range(a + 1, len(grid))
    ]
    if (payload.get("grid") != names or payload.get("depth") != depth
            or payload.get("pairs") != expected_pairs
            or payload.get("membership") != [{"mu": n, "in_m": True} for n in names]
            or payload.get("all_separated") is not True
            or payload.get("all_in_ideal") is not True
            or [row.get("mu") for row in payload.get("ratios", [])] != names):
        return False
    for mu, row in zip(grid, payload["ratios"]):
        samples = row.get("samples", [])
        if [smp.get("s") for smp in samples] != [_rat(s) for s in RATIO_GRID]:
            return False
        for s, smp in zip(RATIO_GRID, samples):
            exact = _brute_legendre(mu, depth, s, state)
            if exact is None:
                return False
            expected = float(exact) / float(s) ** float(mu)
            got = smp.get("ratio")
            if not isinstance(got, float) or abs(got - expected) > 1e-9 * expected:
                return False
    return True


# ---------------------------------------------------------------------------
# verify-suites: the 22 property suites at small size

SUITES: Tuple[str, ...] = (
    "base-valuations", "multiplicativity", "triangle", "submultiplicativity",
    "support", "canonicalization", "concavity", "localization", "witnesses",
    "commutation", "hull-stability", "legendre-monotonicity", "legendre-translate",
    "minkowski", "npf-diagram", "profile-roundtrip", "deviation", "classifier",
    "chain", "ideal", "supremum", "roundtrip",
)
# A cycle runs every suite at every case count, so suite times overlap, the
# latency median does not sit on a gap between suites, and every run holds
# the same mix whatever number of cycles fits in it.
VERIFY_CASES = (15, 30, 45, 60)
VERIFY_SEEDS = 16
DIGESTS_PATH = Path(__file__).with_name("verify_digests.json")


def verify_suites_op(seed: int, k: int) -> dict:
    j = k % (len(SUITES) * len(VERIFY_CASES))
    suite = SUITES[j % len(SUITES)]
    cases = VERIFY_CASES[j // len(SUITES)]
    vseed = random.Random(f"verify-suites:{seed}:{k}").randrange(VERIFY_SEEDS)
    argv = ["verify", suite, "--cases", str(cases), "--seed", str(vseed)]
    return {"argv": argv, "suite": suite, "cases": cases, "vseed": vseed,
            "size": {"suite_cases": f"{suite}:{cases}"}}


def verify_digest(out: str) -> str:
    return hashlib.sha256(out.encode("utf-8")).hexdigest()


def verify_suites_check(op: dict, rc: int, out: str, state: dict) -> bool:
    if "digests" not in state:
        state["digests"] = json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))
    expected = state["digests"][op["suite"]][str(op["cases"])][op["vseed"]]
    return rc == 0 and verify_digest(out) == expected


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class Workload:
    name: str
    cycle: int  # ops per cycle of size classes
    make: Callable[[int, int], dict]  # (seed, op index) -> op
    check: Callable[[dict, int, str, dict], bool]  # (op, exit code, stdout, state)
    # a fixed, seed-independent op run once, untimed, before the first timed op
    warmup: List[str]


REGISTRY: Dict[str, Workload] = {
    "carry-mul": Workload(
        "carry-mul", len(CARRY_CLASSES), carry_mul_op, carry_mul_check,
        ["mul", "3*p^{1/2} + 1 + O(p^{6})", "1 + 2*p^{1/3} + O(p^{6})",
         "--mode", "arithmetic", "--p", "2", "--domain", "padic"],
    ),
    "profile-chain": Workload(
        "profile-chain", len(CHAIN_GRID_SIZES), profile_chain_op, profile_chain_check,
        # every exponent a grid can draw, so the inverse-constant cache is full
        ["chain", *[a for mu in MU_UNIVERSE for a in ("--mu", _rat(mu))],
         "--depth", "16", "--format", "json"],
    ),
    "verify-suites": Workload(
        "verify-suites", len(SUITES) * len(VERIFY_CASES), verify_suites_op, verify_suites_check,
        ["verify", "roundtrip", "--cases", "2", "--seed", "0"],
    ),
}
WORKLOADS = tuple(REGISTRY)


def size_histogram(ops: Sequence[dict]) -> dict:
    """Input sizes of the ops run: per-key counts of each value."""
    hist: Dict[str, Counter] = {}
    for op in ops:
        for key, value in op["size"].items():
            values = value if isinstance(value, tuple) else (value,)
            for v in values:
                hist.setdefault(key, Counter())[str(v)] += 1
    return {key: dict(sorted(c.items())) for key, c in hist.items()}
