"""Property-suite runner: coverage, determinism, report format."""

import ast
import dataclasses
import hashlib
import importlib
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

import mnseries
import mnseries.cli
import mnseries.profiles as profiles_module
import mnseries.verify as verify_module
from mnseries import (IndexPoints, MixedPoly, PadicDigits, PerfectPoly, Series, XPoly, format_report,
                      run_all, run_suite, suite_names)


def test_every_registered_suite_passes_briefly():
    for name in suite_names():
        result = run_suite(name, 20, 0)
        assert result.passed, f"{name}: {result.failures[:3]}"


def test_unknown_suite():
    with pytest.raises(KeyError):
        run_suite("nope", 1, 0)


def test_same_seed_same_report():
    a = format_report(run_all(30, 1))
    b = format_report(run_all(30, 1))
    assert a == b


def test_report_shape():
    text = format_report(run_all(10, 0))
    lines = text.strip().splitlines()
    assert lines[-1].startswith("total suites=")
    assert all(line.startswith(("suite=", " ", "total")) for line in lines)


def test_suite_names_cover_invariant_families():
    names = set(suite_names())
    expected = {
        "base-valuations",
        "multiplicativity",
        "triangle",
        "submultiplicativity",
        "support",
        "canonicalization",
        "concavity",
        "localization",
        "witnesses",
        "commutation",
        "hull-stability",
        "legendre-monotonicity",
        "legendre-translate",
        "minkowski",
        "npf-diagram",
        "profile-roundtrip",
        "deviation",
        "classifier",
        "chain",
        "ideal",
        "supremum",
        "roundtrip",
    }
    assert expected <= names


def test_reports_match_the_recorded_digests():
    """Every suite's 15-case, seed-0 report keeps the bytes recorded for the benchmark."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "verify_digests.json"
    digests = json.loads(path.read_text(encoding="utf-8"))
    for name in suite_names():
        report = format_report([run_suite(name, 15, 0)])
        assert hashlib.sha256(report.encode("utf-8")).hexdigest() == digests[name]["15"][0], name


def test_benchmark_seams_keep_their_names(monkeypatch):
    """Every name perfbench/tracing.py wraps, and the profile-chain checker reads, resolves."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracing = importlib.import_module("tracing")
    for _, modname, attr in tracing.SPANS:
        owner = importlib.import_module(f"mnseries.{modname}")
        if "." in attr:  # the tracer replaces the method in the class's own namespace
            cls_name, meth = attr.split(".")
            owner, attr = getattr(owner, cls_name), meth
            assert attr in vars(owner), f"{cls_name}.{meth}"
        assert callable(getattr(owner, attr)), attr
    domains = importlib.import_module("mnseries.domains")
    for name in tracing.DOMAIN_CLASSES:
        assert isinstance(getattr(domains, name), type), name
    for name in ("materialize", "PerfectPoly"):
        assert callable(getattr(mnseries, name)), name
    assert callable(mnseries.ProfileElement.for_exponent)


def test_benchmark_argv_pass_their_workload_checks(monkeypatch, capsys):
    """Every workload's warm-up exits 0, and the first carry-mul and
    profile-chain cycles at seed 0 and the first 22 verify-suites ops pass
    their workload's own check, run through ``cli.main`` as the benchmark
    runs them: a flag the CLI stops accepting shows here."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    state = {"mnseries": mnseries}
    for name, count in (("carry-mul", None), ("profile-chain", None), ("verify-suites", 22)):
        wl = workloads.REGISTRY[name]
        code = mnseries.cli.main(list(wl.warmup))
        out, err = capsys.readouterr()
        assert (code, err) == (0, "") and out, name
        for k in range(count or wl.cycle):
            op = wl.make(0, k)
            code = mnseries.cli.main(list(op["argv"]))
            out, err = capsys.readouterr()
            assert err == "" and wl.check(op, code, out, state), (name, op["argv"])


def test_public_names_are_declared_where_they_are_defined():
    # the package imports each public name from the module that defines it
    tree = ast.parse(Path(mnseries.__file__).read_text(encoding="utf-8"))
    source = {alias.name: node.module for node in tree.body if isinstance(node, ast.ImportFrom)
              for alias in node.names}
    for name in mnseries.__all__:
        module = importlib.import_module(f"mnseries.{source[name]}")
        assert name in getattr(module, "__all__", [name]), f"{name} not in {module.__name__}.__all__"


@pytest.mark.parametrize("bad", [-3, 0, True, 2.0, "5"])
def test_case_count_must_be_a_positive_int(bad):
    with pytest.raises(ValueError, match=f"^the case count must be an int >= 1, got {bad!r}$"):
        run_suite("roundtrip", bad, 0)


def test_generated_series_are_not_coerced_again(monkeypatch):
    # the generator draws domain elements on nonnegative Fractions and hands them straight to the fold
    calls = []
    for cls in (PerfectPoly, PadicDigits, MixedPoly):
        method = cls.coerce
        monkeypatch.setattr(cls, "coerce",
                            lambda self, a, method=method: calls.append(a) or method(self, a))
    rng = random.Random("generated")
    drawn = [(verify_module._rand_series(rng, dom, mode), dom, mode)
             for _ in range(30) for dom, mode in verify_module._setups(rng)]
    assert calls == []
    for f, dom, mode in drawn:
        assert Series.make(dom, mode, f.terms) == f
    assert len(calls) == sum(len(f.terms) for f, _, _ in drawn)


def test_generator_draws_are_pinned():
    # a passing suite prints no instance, so the report digests alone would not see a changed draw
    rng = random.Random("generator-pin")
    drawn = []
    for _ in range(40):
        for dom, mode in verify_module._setups(rng):
            drawn += [repr(dom),
                      repr(verify_module._rand_series(rng, dom, mode)),
                      repr(verify_module._rand_series(rng, dom, mode, max_terms=4, nonzero=True)),
                      repr(verify_module._rand_series(rng, dom, mode, integer_exponents=True)),
                      repr(verify_module._rand_coeff(rng, dom, reduced=True))]
        drawn += [repr(verify_module._rand_polygon_points(rng)),
                  repr(verify_module._sample_s(rng)), repr(verify_module._sample_s(rng, 3))]
    digest = hashlib.sha256("\n".join(drawn).encode("utf-8")).hexdigest()
    assert digest == "2394b51b9bfb422d09e76e6b513ffda8c625abb70a3606b552075fad99343c0e"


def test_suite_draws_are_pinned(monkeypatch):
    # each suite's own draws move its generator; a passing report prints only counts, so read
    # the generator's next draw after each suite's run
    made = []

    class Recording(random.Random):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(random, "Random", Recording)
    lines = []
    for name in suite_names():
        made.clear()
        run_suite(name, 15, 0)
        [rng] = made
        lines.append(f"{name} {rng.random()!r}")
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    assert digest == "5b237c4ce0e3465596f480de78564f3eb2d9afd61a7fff50b95b0bcbc8956681"


def test_fault_witnesses_are_pinned(monkeypatch):
    # every witness, not only the five a report prints, under products that lose their last term
    mul = verify_module.mul

    def dropped(f, g):
        fg, trace = mul(f, g)
        return Series(fg.domain, fg.mode, fg.terms[:-1], fg.prec), trace

    monkeypatch.setattr(verify_module, "mul", dropped)
    witnesses = [f"{r.name} {w}" for r in run_all(60, 3) for w in r.failures]
    assert len(witnesses) == 71
    digest = hashlib.sha256("\n".join(witnesses).encode("utf-8")).hexdigest()
    assert digest == "7a25dd86f26d70415eb65b46756129b9037de52974a23b674bf955473265452b"


def test_witnesses_print_inputs_in_the_cli_literal_form(monkeypatch):
    # a grid prints as the exponents `chain --mu` takes, a coefficient as the grammar writes it
    chain_report = verify_module.chain_report
    monkeypatch.setattr(verify_module, "chain_report",
                        lambda grid, depth: chain_report(grid[:-1], depth=depth))
    assert run_suite("chain", 40, 0).failures == (
        "case=0 grid=[1/6, 1/2, 3/4, 11/12] kind=pair-count",)
    mul = PerfectPoly.mul
    monkeypatch.setattr(PerfectPoly, "mul", lambda self, a, b: XPoly(mul(self, a, b).monomials[1:]))
    failures = run_suite("base-valuations", 4, 0).failures
    assert failures[:4] == (
        "case=0 law=perfect-multiplicative a=x + 2*x^{31/9} b=2*x + 2*x^{2}",
        "case=0 law=reduction-homomorphism a=8 + 8*x b=5 + x^{8/3}",
        "case=1 law=perfect-multiplicative a=x^{13/4} b=x^{4}",
        "case=1 law=reduction-homomorphism a=x^{5/2} b=3*x^{5/2}",
    )


def test_witness_values_print_element_by_element():
    witness = verify_module._witness
    assert witness(2, pts=[(Fraction(0), Fraction(5, 2))], s=(Fraction(1, 3),), n=7) == (
        "case=2 pts=[(0, 5/2)] s=(1/3,) n=7")
    assert witness(0, a=XPoly(()), kind="bound", tags=["x", 1]) == "case=0 a=0 kind=bound tags=['x', 1]"


def test_fixed_checks_report_as_case_minus_one(monkeypatch):
    monkeypatch.setattr(verify_module, "in_m", lambda f: True)
    assert run_suite("ideal", 6, 0).failures == ("case=-1 kind=unit-digit",)
    chain_report = verify_module.chain_report

    def paired(grid, depth):  # a one-exponent grid reports a pair with half its exponent
        return chain_report([grid[0] / 2, *grid] if len(grid) == 1 else grid, depth=depth)

    monkeypatch.setattr(verify_module, "chain_report", paired)
    assert run_suite("chain", 40, 0).failures == ("case=-1 kind=singleton-grid",)


def _window_cut_short(monkeypatch):
    """Each chain window ends 4 indices before its proof allows (keeping one)."""
    window = profiles_module._chain_window

    def short(profile, depth):
        points = window(profile, depth)
        return IndexPoints(points.ys[:max(1, len(points) - 4)], points.dy)

    monkeypatch.setattr(profiles_module, "_chain_window", short)


def _ratio_off_by_a_power(monkeypatch):
    """Each chain ratio is divided by s^(0.05 mu)."""
    chain_report = verify_module.chain_report

    def off(grid, depth):
        report = chain_report(grid, depth=depth)
        return dataclasses.replace(report, ratios=tuple(
            (mu, tuple((s, ratio / float(s) ** (0.05 * float(mu))) for s, ratio in row))
            for mu, row in report.ratios))

    monkeypatch.setattr(verify_module, "chain_report", off)


@pytest.mark.parametrize("inject", [_window_cut_short, _ratio_off_by_a_power],
                         ids=["window-cut-short", "ratio-off-by-a-power"])
def test_chain_suite_fails_on_an_injected_fault(monkeypatch, inject):
    # the chain suite compares each ratio with the materialized element's least
    # term value, so one fault alone fails its one case at every seed
    assert all(run_suite("chain", 40, seed).passed for seed in range(16))
    inject(monkeypatch)
    for seed in range(16):
        failures = run_suite("chain", 40, seed).failures
        assert any("kind=ratio" in w for w in failures), seed
