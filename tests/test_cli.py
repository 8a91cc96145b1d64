"""Command-line interface: commands, formats, exit codes, determinism."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import mnseries
import mnseries.cli as cli_module
from mnseries.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_np_text(capsys):
    code, out, _ = run(capsys, "np", "x^{2} + x*t + t^{2}", "--p", "3")
    assert code == 0
    assert out == "node x=0 y=2\nnode x=2 y=0\n"


def test_np_csv_schema(capsys):
    code, out, _ = run(capsys, "np", "x^{2} + x*t + t^{2}", "--p", "3", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,y,num_x,den_x,num_y,den_y"
    assert lines[1].split(",") == ["0.0", "2.0", "0", "1", "2", "1"]
    assert lines[2].split(",") == ["2.0", "0.0", "2", "1", "0", "1"]


def test_np_svg(tmp_path, capsys):
    out_path = tmp_path / "poly.svg"
    code, _, _ = run(
        capsys, "np", "x^{2} + x*t + t^{2}", "--p", "3", "--format", "svg",
        "--out", str(out_path),
    )
    assert code == 0
    text = out_path.read_text()
    assert text.startswith("<?xml")
    assert "floating-point approximations" in text
    assert "<polyline" in text


def test_np_empty_series_is_error(capsys):
    code, _, err = run(capsys, "np", "0", "--p", "3")
    assert code == 1
    assert "error:" in err


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "gauss", "x^{-1}", "--s", "1")
    assert code == 1
    assert "error:" in err


def test_gauss_output(capsys):
    code, out, _ = run(capsys, "gauss", "x*t^{1/2} + x^{3}", "--p", "3", "--s", "2")
    assert code == 0
    assert out == "s=2 value=2 exact=true argnorm=1/2\n"


def test_leg_values(capsys):
    code, out, _ = run(
        capsys, "leg", "x^{2} + x*t + t^{2}", "--p", "3", "--s", "1/2", "--s", "1"
    )
    assert code == 0
    assert out == "s=1/2 value=1\ns=1 value=2\n"


def test_mul_and_add(capsys):
    code, out, _ = run(
        capsys, "mul", "1 + p", "1 + p", "--mode", "arithmetic", "--domain", "padic"
    )
    assert code == 0 and out.strip() == "1 + p^{3}"
    code, out, _ = run(
        capsys, "add", "1", "1", "--mode", "arithmetic", "--domain", "padic"
    )
    assert code == 0 and out.strip() == "p"


def test_mul_json_trace(capsys):
    code, out, _ = run(
        capsys, "mul", "1 + p", "1 + p", "--mode", "arithmetic", "--domain", "padic",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["product"] == "1 + p^{3}"
    assert {"i": "0", "j": "0", "k": "0"} in payload["trace"]


# stdout of `mul --format json`, recorded before the carry trace became lazy
MUL_JSON_PADIC = """{
  "product": "1 + p^{2} + p^{5/2}",
  "trace": [
    {
      "i": "0",
      "j": "0",
      "k": "0"
    },
    {
      "i": "0",
      "j": "0",
      "k": "2"
    },
    {
      "i": "0",
      "j": "1/2",
      "k": "5/2"
    },
    {
      "i": "0",
      "j": "1",
      "k": "2"
    },
    {
      "i": "1/2",
      "j": "0",
      "k": "5/2"
    },
    {
      "i": "1/2",
      "j": "1/2",
      "k": "2"
    },
    {
      "i": "1/2",
      "j": "1",
      "k": "5/2"
    }
  ]
}
"""

MUL_JSON_MIXED = """{
  "product": "x + (1 + x + x^{2})*p^{1/2} + (1 + x)*p",
  "trace": [
    {
      "i": "0",
      "j": "0",
      "k": "0"
    },
    {
      "i": "0",
      "j": "0",
      "k": "1"
    },
    {
      "i": "0",
      "j": "1/2",
      "k": "1/2"
    },
    {
      "i": "1/2",
      "j": "0",
      "k": "1/2"
    },
    {
      "i": "1/2",
      "j": "1/2",
      "k": "1"
    }
  ]
}
"""


def test_mul_json_bytes_padic_and_mixed(capsys):
    code, out, _ = run(
        capsys, "mul", "1 + p^{1/2}", "3 + p^{1/2}", "--mode", "arithmetic",
        "--domain", "padic", "--format", "json",
    )
    assert code == 0 and out == MUL_JSON_PADIC
    code, out, _ = run(
        capsys, "mul", "(1 + x)*p^{1/2} + 1", "x + p^{1/2}", "--mode", "arithmetic",
        "--domain", "mixed", "--format", "json",
    )
    assert code == 0 and out == MUL_JSON_MIXED


def test_canon(capsys):
    code, out, _ = run(
        capsys, "canon", "3*p^{1/2} + 1", "--mode", "arithmetic", "--domain", "padic"
    )
    assert code == 0
    assert out.strip() == "1 + p^{1/2} + p^{3/2}"
    code, _, err = run(capsys, "canon", "x*t")
    assert code == 1 and "arithmetic" in err


def test_approx_targets(capsys):
    code, out, _ = run(
        capsys, "approx", "--target", "1=1", "--target", "2=1/2", "--target", "3=1/3"
    )
    assert code == 0
    assert "node i=3 target=1/3 q=1/4 denominator_scale=p^2 deviation=1/12 bound=1/9" in out
    assert "status=ok" in out


def test_approx_profile(capsys):
    code, out, _ = run(capsys, "approx", "--mu", "1/2", "--depth", "4")
    assert code == 0
    assert "q_1=1/4" in out and "q_2=1/8" in out


def test_approx_requires_input(capsys):
    code, _, err = run(capsys, "approx")
    assert code == 1 and "error:" in err


def test_approx_rejects_targets_with_exponents(capsys):
    code, out, err = run(capsys, "approx", "--target", "1=1", "--mu", "1/2")
    assert code == 1 and out == ""
    assert "argument --mu: not allowed with argument --target" in err


@pytest.mark.parametrize("argv, message", [
    (["--mu", "1/2", "--domain", "padic"], "profiles need a polynomial coefficient domain"),
    (["--target", "1=1", "--domain", "padic"], "discrete approximation needs a polynomial"),
    (["--target", "1=1", "--mode", "arithmetic"], "discrete approximation needs a polynomial"),
])
def test_approx_rejects_a_padic_domain(capsys, argv, message):
    code, out, err = run(capsys, "approx", *argv)
    assert code == 1 and out == "" and message in err


def test_approx_mixed_profile_prints_a_p_series(capsys):
    code, out, _ = run(capsys, "approx", "--mode", "arithmetic", "--domain", "mixed",
                       "--mu", "1/2", "--depth", "4")
    assert code == 0
    assert out.splitlines()[1].startswith("series: x^{1/4}*p + ")
    assert out.endswith(" + O(p^{5})\n")


def test_chain_text_and_json(capsys):
    code, out, _ = run(capsys, "chain", "--mu", "1/4", "--mu", "1/2", "--depth", "8")
    assert code == 0
    assert "pair mu=1/4 lambda=1/2 verdict=omega separated" in out
    assert "result separated=all ideal=all" in out
    code, out, _ = run(
        capsys, "chain", "--mu", "1/4", "--mu", "1/2", "--depth", "8", "--format", "json"
    )
    payload = json.loads(out)
    assert payload["all_separated"] is True
    assert payload["pairs"][0]["verdict"] == "omega"


def test_example_sup(capsys):
    code, out, _ = run(capsys, "example-sup", "--s", "1", "--depth", "3")
    assert code == 0
    assert out == "n=1 value=7/2\nn=2 value=13/4\nn=3 value=19/6\nlimit=3\n"


def test_verify_single_suite(capsys):
    code, out, _ = run(capsys, "verify", "roundtrip", "--cases", "25", "--seed", "7")
    assert code == 0
    assert "suite=roundtrip cases=25 failures=0 status=pass" in out


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "nonsense")
    assert code == 1 and "argument suite: invalid choice: 'nonsense'" in err


def test_chain_json_out_file(tmp_path, capsys):
    out_path = tmp_path / "chain.json"
    code, out, _ = run(
        capsys, "chain", "--mu", "1/4", "--mu", "1/2", "--depth", "8", "--format", "json",
        "--out", str(out_path),
    )
    assert code == 0 and out == ""
    payload = json.loads(out_path.read_text())
    assert payload["all_in_ideal"] is True


@pytest.mark.parametrize("fmt", ["csv", "svg"])
def test_chain_rejects_csv_and_svg(capsys, fmt):
    code, out, err = run(capsys, "chain", "--mu", "1/2", "--format", fmt)
    assert code == 1 and out == ""
    assert f"invalid choice: '{fmt}'" in err


def test_leg_csv_deterministic(capsys):
    args = ["leg", "x^{2} + x*t + t^{2}", "--p", "3", "--s", "1/2", "--s", "2", "--format", "csv"]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.splitlines()[0] == "x,y,num_x,den_x,num_y,den_y"


def test_usage_errors_exit_1_and_help_exits_0(capsys):
    code, out, err = run(capsys, "gauss", "x*t", "--s", "1/0")
    assert code == 1 and out == "" and "not a rational" in err
    code, _, err = run(capsys, "mul", "1")  # missing operand
    assert code == 1 and "required" in err
    code, _, _ = run(capsys)  # no command
    assert code == 1
    code, out, err = run(capsys, "add", "1", "1", "--format", "json")  # add prints text only
    assert code == 1 and out == "" and "unrecognized arguments: --format json" in err
    code, out, err = run(capsys, "plot", "np", "x")  # not a command
    assert code == 1 and out == "" and "invalid choice: 'plot'" in err
    code, out, _ = run(capsys, "--help")
    assert code == 0 and out.startswith("usage: mnseries")
    code, out, _ = run(capsys, "mul", "--help")
    assert code == 0 and out.startswith("usage: mnseries mul")


def test_composite_p_exits_1(capsys):
    code, out, err = run(capsys, "gauss", "x*t", "--s", "1", "--p", "6")
    assert code == 1 and out == ""
    assert err == "error: p must be a prime, got 6\n"
    code, _, err = run(capsys, "chain", "--mu", "1/2", "--p", "6")
    assert code == 1 and "prime" in err


def test_large_prime_p_is_decided_at_once_and_the_exact_bound_exits_1(capsys):
    # a 21-digit prime: trial division to its square root never returned
    code, out, err = run(capsys, "chain", "--mu", "1/2", "--p", "100000000000000000039")
    assert code == 0 and err == "" and "ideal mu=1/2 in_m=true" in out
    bound = "318665857834031151167461"  # a strong pseudoprime to the bases 2, ..., 37
    code, out, err = run(capsys, "chain", "--mu", "1/2", "--p", bound)
    assert code == 1 and out == ""
    assert err == f"error: p must be below {bound}, where primality is decided exactly, got {bound}\n"


def test_precision_loss_exits_1_with_its_message(capsys):
    code, out, err = run(capsys, "canon", "p^{5} + 1", "--mode", "arithmetic", "--domain", "padic",
                         "--prec-N", "2")
    assert code == 1 and out == ""
    assert err == "error: digit at index 5 sits at offset 5 within its coset 0 + Z, beyond the p^2 modulus\n"


def test_chain_ratios_do_not_depend_on_the_depth_past_the_window(capsys):
    # every sample's minimum sits within the first few dozen indices, so only
    # the header's depth differs between depth 1000 and depth 10^6
    texts = []
    for depth in ("1000", "1000000"):
        code, out, _ = run(capsys, "chain", "--mu", "1/2", "--mu", "3/4", "--depth", depth)
        assert code == 0
        texts.append(out.splitlines())
    shallow, deep = texts
    assert shallow[0] == "chain grid=1/2,3/4 depth=1000"
    assert deep[0] == "chain grid=1/2,3/4 depth=1000000"
    assert shallow[1:] == deep[1:]
    assert [line.split()[1] for line in deep if line.startswith("ratio ")] == ["mu=1/2", "mu=3/4"]


def test_successive_calls_share_no_parser_state(capsys):
    from mnseries.cli import _shared_parser

    poly = "x^{2} + x*t + t^{2}"
    assert run(capsys, "leg", poly, "--p", "3", "--s", "1/2", "--s", "2")[0] == 0
    assert run(capsys, "leg", poly, "--p", "3", "--s", "3")[:2] == (0, "s=3 value=2\n")
    code, out, err = run(capsys, "leg", poly, "--p", "3")
    assert (code, out) == (1, "") and "the following arguments are required: --s" in err

    assert run(capsys, "chain", "--mu", "1/4", "--mu", "1/2", "--depth", "8")[0] == 0
    code, out, _ = run(capsys, "chain", "--mu", "3/4", "--depth", "8", "--format", "json")
    assert code == 0 and json.loads(out)["grid"] == ["3/4"]

    assert run(capsys, "approx", "--target", "1=1", "--target", "2=1/2")[0] == 0
    code, out, _ = run(capsys, "approx", "--target", "1=1")
    assert code == 0 and out.endswith("series: x*t + O(t^{2})\n")
    assert "node i=2" not in out

    code, out, _ = run(capsys, "--help")
    assert code == 0 and out.startswith("usage: mnseries")
    assert run(capsys, "mul", "1")[0] == 1
    assert _shared_parser() is _shared_parser()


def test_np_and_leg_json_bytes(capsys):
    poly = "x^{2} + x*t + t^{2}"
    code, out, _ = run(capsys, "np", poly, "--p", "3", "--format", "json")
    assert code == 0
    assert out == (
        '[\n  {\n    "x": "0",\n    "y": "2"\n  },\n'
        '  {\n    "x": "2",\n    "y": "0"\n  }\n]\n'
    )
    code, out, _ = run(capsys, "leg", poly, "--p", "3", "--s", "1/2", "--s", "3", "--format", "json")
    assert code == 0
    assert out == (
        '[\n  {\n    "s": "1/2",\n    "value": "1"\n  },\n'
        '  {\n    "s": "3",\n    "value": "2"\n  }\n]\n'
    )


def test_value_and_os_errors_exit_1(tmp_path, capsys):
    code, out, err = run(capsys, "chain", "--mu", "2")
    assert (code, out, err) == (1, "", "error: grid exponents must lie in (0, 1)\n")
    missing = tmp_path / "missing" / "f.csv"
    code, out, err = run(capsys, "np", "x", "--out", str(missing))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and str(missing) in err
    assert not missing.parent.exists()


def test_approx_target_index_must_be_positive(capsys):
    code, out, err = run(capsys, "approx", "--target=0=1")
    assert (code, out, err) == (1, "", "error: target index must be an integer >= 1, got 0\n")


def test_approx_negative_target_index_exits_at_once():
    # a negative index makes the deviation bound negative, so no digit meets
    # it and an unchecked search never ends: the command runs in a child
    # with a timeout
    env = {**os.environ, "PYTHONPATH": str(Path(mnseries.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "mnseries.cli", "approx", "--target=-1=1"],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: target index must be an integer >= 1, got -1\n"


def test_python_dash_m_mnseries_runs_the_cli():
    # the package runs as a module from a checkout, with no installed script;
    # the digest is that of the 1 177 bytes of `verify all --seed 0`
    env = {**os.environ, "PYTHONPATH": str(Path(mnseries.__file__).parents[1])}

    def child(*argv):
        return subprocess.run([sys.executable, "-m", "mnseries", *argv],
                              capture_output=True, timeout=300, env=env)

    proc = child("verify", "all", "--seed", "0")
    assert proc.returncode == 0
    assert hashlib.sha256(proc.stdout).hexdigest() == (
        "969e56e11c52c79c2701811dc42e2fb4e3362d767f33c6f37e7a839ab448082e")
    proc = child("chain", "--mu", "1/2", "--depth", "0")
    assert (proc.returncode, proc.stdout) == (1, b"")
    assert proc.stderr == b"error: depth must be an integer >= 1, got 0\n"


def test_verify_case_count_must_be_positive(capsys):
    code, out, err = run(capsys, "verify", "--cases", "-3")
    assert (code, out) == (1, "")
    assert err == "error: the case count must be an int >= 1, got -3\n"


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="this interpreter has no int-string limit")
def test_an_integer_past_the_int_string_limit_exits_1_with_its_position(capsys):
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "canon", "1 + " + "7" * (limit + 1) + "*p",
                         "--mode", "arithmetic", "--domain", "padic")
    assert (code, out) == (1, "")
    assert err == (f"error: integer of {limit + 1} digits exceeds the interpreter's "
                   f"limit of {limit} digits (at position 4)\n")


@pytest.mark.parametrize("argv, expected", [
    (["canon", "p^{5}", "--domain", "padic"], "p^{5}\n"),
    (["mul", "p", "p", "--domain", "padic"], "p^{2}\n"),
    (["canon", "p^{5}", "--domain", "mixed"], "p^{5}\n"),
], ids=["canon-padic", "mul-padic", "canon-mixed"])
def test_a_huge_modulus_is_not_built_for_a_short_literal(argv, expected, capsys, monkeypatch):
    # p^N is built only when a value can reach it: in process at N = 10^6,
    # no domain the command makes holds p^N afterwards; only then is the
    # command run at N = 10^12, where p^N could not be held at all
    domains, domain_of = [], cli_module._domain_of

    def recorded(args):
        domains.append(domain_of(args))
        return domains[-1]

    monkeypatch.setattr(cli_module, "_domain_of", recorded)
    argv = [*argv, "--mode", "arithmetic"]
    assert run(capsys, *argv, "--prec-N", str(10**6)) == (0, expected, "")
    assert domains and all(dom._modulus is None for dom in domains)
    env = {**os.environ, "PYTHONPATH": str(Path(mnseries.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "mnseries", *argv, "--prec-N", str(10**12)],
                          capture_output=True, text=True, timeout=60, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected, "")


BENCH_MUS = sorted({Fraction(n, d) for d in (4, 8, 12, 16) for n in range(1, d)})


@pytest.mark.parametrize("p, depth, digest", [
    (2, 128, "6f0c42d33340014316935c9d63b1fcf489379a4669424f5fc8ee76df42855734"),
    (2, 1024, "7906ef768b27ad8e72a50fcc264ebe920ec85c2b964465d38d0d4c306b619952"),
    (3, 128, "51d6ebb60438a76325f21a7234f67524b4ed3134da5bc4510db94456c0fa07dc"),
    (3, 1024, "9a4fea0d38d82a7284b649d1e1fa4c07d5b4a27bb3f1fb4fd26d09b1cf65e30b"),
    (5, 128, "aeeda40dbb78a2ba97b90492c64b6fd2de7b264fdcf30bfc47e996e35164b922"),
    (5, 1024, "6ab7368bab2bf78a3f526e0cd41a0f9070310c0dd4db9dc6d579392e090d01b5"),
])
def test_chain_json_bytes_over_the_benchmark_exponents(capsys, p, depth, digest):
    # one grid of all 23 exponents the profile-chain benchmark draws
    argv = ["chain", *[a for mu in BENCH_MUS for a in ("--mu", str(mu))],
            "--depth", str(depth), "--p", str(p), "--format", "json"]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# Evidence that a command reads an option: two argvs that differ only in
# flags and print different stdout, neither turned away by argparse; or an
# argv the command refuses, with exit 1, empty stdout and a stderr that
# names the option.  A type error (`--seed x`) is neither.
def differs(argv, a, b):
    return ("differs", [*argv, *a], [*argv, *b])


def refused(*argv):
    return ("refused", list(argv))


# flags that tell apart two runs of np, leg, gauss, mul and add on one literal
SERIES_FLAGS = {
    "--mode": ("2", [], ["--mode", "arithmetic"]),  # 2 is 0 in F_2 and p in Z_2
    "--p": ("2", [], ["--p", "3"]),
    "--domain": ("x*t", [], ["--domain", "padic"]),  # x needs a polynomial domain
    "--denominators": ("x^{1/3}*t", [], ["--denominators", "p-power"]),
}
SERIES_ARGV = {
    "np": lambda lit: ["np", lit],
    "leg": lambda lit: ["leg", lit, "--s", "1"],
    "gauss": lambda lit: ["gauss", lit, "--s", "1"],
    "mul": lambda lit: ["mul", lit, "1"],
    "add": lambda lit: ["add", lit, "0"],
}
POLY = "x^{2} + x*t + t^{2}"
ARITH = ["--mode", "arithmetic"]

# flags once dropped in silence: each input exited 0 with the bytes it printed without the flag
SILENTLY_DROPPED = [
    ("np", "--prec-N", refused("np", "x^{1/2} + t", "--prec-N", "5")),
    ("canon", "--denominators", refused("canon", "3 + p", *ARITH, "--denominators", "p-power")),
    ("approx", "--depth", refused("approx", "--target", "1=1", "--depth", "3")),
    ("approx", "--mode",
     refused("approx", "--mu", "1/2", "--depth", "3", "--domain", "mixed", "--mode", "formal")),
    ("approx", "--mode", refused("approx", "--target", "1=1", "--domain", "perfect", *ARITH)),
    ("gauss", "--format", refused("gauss", "x", "--s", "1", "--format", "text")),
    # every digit approx builds has an exponent m/p^k, which both lattices hold
    ("approx", "--denominators",
     refused("approx", "--target", "1=1/3", "--target", "2=1/7", "--denominators", "p-power")),
    ("approx", "--denominators", refused("approx", "--mu", "1/3", "--domain", "mixed", *ARITH,
                                         "--denominators", "p-power")),
]

EVIDENCE = [
    *[(command, flag, differs(argv(lit), a, b))
      for command, argv in SERIES_ARGV.items() for flag, (lit, a, b) in SERIES_FLAGS.items()],
    # a formal polygon reads each coefficient mod p only, so there N shows only
    # as a refusal; in arithmetic mode the literal is carried first, and 1 + p
    # prints node x=0 y=0 at the default N but overflows p^1
    ("np", "--prec-N", refused("np", "x", "--prec-N", "5")),
    ("leg", "--prec-N", refused("leg", "x", "--s", "1", "--prec-N", "5")),
    *[(command, "--prec-N", differs(SERIES_ARGV[command]("1 + p"), [*ARITH, "--domain", "padic"],
                                    [*ARITH, "--domain", "padic", "--prec-N", "1"]))
      for command in ("np", "leg")],
    *[(command, "--prec-N", differs(SERIES_ARGV[command]("2"), ["--domain", "mixed"],
                                    ["--domain", "mixed", "--prec-N", "1"]))
      for command in ("gauss", "mul", "add")],
    ("leg", "--s", differs(["leg", POLY, "--p", "3"], ["--s", "1/2"], ["--s", "1"])),
    ("gauss", "--s", differs(["gauss", POLY, "--p", "3"], ["--s", "1/2"], ["--s", "1"])),
    *[(command, "--format", differs(argv, [], ["--format", "json"]))
      for command, argv in (("np", ["np", POLY]), ("leg", ["leg", POLY, "--s", "1"]),
                            ("mul", ["mul", "1 + p", "1 + p", *ARITH]))],
    ("canon", "--mode", differs(["canon", "2"], [], ARITH)),
    ("canon", "--p", differs(["canon", "2", *ARITH], [], ["--p", "3"])),
    ("canon", "--domain", differs(["canon", "x", *ARITH], [], ["--domain", "mixed"])),
    ("canon", "--prec-N", differs(["canon", "p^{5} + 1", *ARITH], [], ["--prec-N", "2"])),
    ("canon", "--denominators",
     differs(["canon", "x^{1/3}", *ARITH, "--domain", "mixed"], [], ["--denominators", "p-power"])),
    ("approx", "--target", differs(["approx"], ["--target", "1=1"], ["--target", "1=1/2"])),
    ("approx", "--mu", differs(["approx"], ["--mu", "1/2"], ["--mu", "1/4"])),
    ("approx", "--mu", refused("approx", "--target", "1=1", "--mu", "1/2")),
    ("approx", "--depth", differs(["approx", "--mu", "1/2"], ["--depth", "3"], ["--depth", "4"])),
    ("approx", "--mode", differs(["approx", "--mu", "1/2", "--domain", "mixed"], [], ARITH)),
    ("approx", "--p", differs(["approx", "--mu", "1/2"], [], ["--p", "3"])),
    ("approx", "--domain", differs(["approx", "--target", "1=1"], [], ["--domain", "padic"])),
    ("approx", "--prec-N", differs(["approx", "--mu", "1/2", "--domain", "mixed", *ARITH],
                                   [], ["--prec-N", "2"])),
    ("approx", "--denominators", refused("approx", "--target", "1=1", "--domain", "padic", *ARITH,
                                         "--denominators", "any")),
    ("chain", "--mu", differs(["chain", "--depth", "8"], ["--mu", "1/2"], ["--mu", "1/4"])),
    ("chain", "--depth", differs(["chain", "--mu", "1/2"], ["--depth", "8"], ["--depth", "9"])),
    ("chain", "--p", differs(["chain", "--mu", "1/2", "--depth", "8"], [], ["--p", "3"])),
    ("chain", "--format",
     differs(["chain", "--mu", "1/2", "--depth", "8"], [], ["--format", "json"])),
    ("example-sup", "--s", differs(["example-sup", "--depth", "3"], ["--s", "1"], ["--s", "2"])),
    ("example-sup", "--depth", differs(["example-sup"], ["--depth", "3"], ["--depth", "4"])),
    ("example-sup", "--format", differs(["example-sup", "--depth", "3"], [], ["--format", "csv"])),
    ("verify", "--cases", differs(["verify", "roundtrip"], ["--cases", "2"], ["--cases", "3"])),
    *SILENTLY_DROPPED,
]


def _options():
    """(command, option) for every option of every subcommand, but -h and --out."""
    parser = cli_module.build_parser()
    [commands] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {(command, action.option_strings[0])
            for command, sub in commands.choices.items() for action in sub._actions
            if action.option_strings and action.option_strings[0] not in ("-h", "--out")}


def test_every_option_is_read_or_refused():
    # verify --seed reaches no passing report's bytes: see test_verify_passes_its_seed_on
    covered = {(command, flag) for command, flag, _ in EVIDENCE} | {("verify", "--seed")}
    missing = _options() - covered
    assert not missing, f"options with no evidence that they are read or refused: {sorted(missing)}"


@pytest.mark.parametrize("command, flag, evidence", EVIDENCE,
                         ids=[" ".join(e[-1]) for _, _, e in EVIDENCE])
def test_option_evidence(capsys, command, flag, evidence):
    kind, *argvs = evidence
    assert all(argv[0] == command for argv in argvs)
    assert any(flag in argv for argv in argvs)
    if kind == "differs":
        (code_a, out_a, err_a), (code_b, out_b, err_b) = (run(capsys, *argv) for argv in argvs)
        assert not err_a.startswith("usage:") and not err_b.startswith("usage:")
        assert out_a != out_b
    else:
        code, out, err = run(capsys, *argvs[0])
        assert (code, out) == (1, "") and flag in err
        # argparse may refuse the flag, but not its value
        assert not err.startswith("usage:") or (
            "unrecognized arguments" in err or "not allowed with argument" in err)


@pytest.mark.parametrize("command, flag, evidence", SILENTLY_DROPPED,
                         ids=[" ".join(e[1]) for _, _, e in SILENTLY_DROPPED])
def test_flags_once_dropped_are_refused_with_their_name(capsys, command, flag, evidence):
    code, out, err = run(capsys, *evidence[1])
    assert (code, out) == (1, "") and flag in err
    if flag == "--mode":  # approx names the mode its domain builds and the one asked for
        assert "formal" in err and "arithmetic" in err


def test_a_domain_flag_does_not_outlive_its_call(capsys):
    argv = ["gauss", "2", "--s", "1", "--domain", "mixed"]
    assert run(capsys, *argv, "--prec-N", "1") == (0, "s=1 value=+oo exact=true\n", "")
    assert run(capsys, *argv) == (0, "s=1 value=1 exact=true argnorm=0\n", "")


def test_verify_passes_its_seed_on(capsys, monkeypatch):
    from mnseries.verify import SuiteResult

    calls = []

    def recorded(name, cases, seed):
        calls.append((name, cases, seed))
        return SuiteResult(name, cases, ())

    monkeypatch.setattr(cli_module, "run_suite", recorded)
    assert run(capsys, "verify", "roundtrip", "--cases", "3", "--seed", "7")[0] == 0
    assert calls == [("roundtrip", 3, 7)]
    assert run(capsys, "verify", "--seed", "11")[0] == 0
    assert calls[1:] == [(name, 200, 11) for name in mnseries.verify.suite_names()]
