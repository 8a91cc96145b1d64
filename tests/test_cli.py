"""Command-line interface: commands, formats, exit codes, determinism."""

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
    assert err == "error: approx takes --target nodes or --mu exponents, not both\n"


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
    assert code == 1 and "unknown suite" in err


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
    assert code == 1 and out == "" and "invalid choice: 'json'" in err
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
    assert (code, out, err) == (1, "", "error: at least one --s value is required\n")

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
])
def test_chain_json_bytes_over_the_benchmark_exponents(capsys, p, depth, digest):
    # one grid of all 23 exponents the profile-chain benchmark draws
    argv = ["chain", *[a for mu in BENCH_MUS for a in ("--mu", str(mu))],
            "--depth", str(depth), "--p", str(p), "--format", "json"]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest
