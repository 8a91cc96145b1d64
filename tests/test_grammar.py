"""Series literal parsing and canonical printing."""

import random
import re
import sys
from fractions import Fraction as Q

import pytest

from mnseries import (
    INF,
    MixedPoly,
    Mode,
    PadicDigits,
    ParseError,
    PerfectPoly,
    Series,
    format_series,
    parse_series,
)
from mnseries.grammar import _Tokenizer

P3 = PerfectPoly(3)
PD2 = PadicDigits(2)


def test_parse_two_term_formal():
    f = parse_series("x*t^{1/2} + x^{3}", P3, Mode.FORMAL)
    assert f.support == (Q(0), Q(1, 2))
    assert f.coefficient(Q(1, 2)) == P3.x_power(1)
    assert f.coefficient(0) == P3.x_power(3)


def test_parse_canonicalizes_arithmetic():
    f = parse_series("3*p^{1/2} + 1", PD2, Mode.ARITHMETIC)
    assert format_series(f) == "1 + p^{1/2} + p^{3/2}"


def test_parse_negative_exponent_rejected():
    with pytest.raises(ParseError):
        parse_series("x^{-1}", P3, Mode.FORMAL)


def test_parse_spec_grammar_example():
    text = "(x^{3/2} + 2*x^{1/4})*t^{5/8} + x*t^{2} + O(t^{3})"
    f = parse_series(text, P3, Mode.FORMAL)
    assert f.prec == Q(3)
    assert f.coefficient(Q(5, 8)) == P3.poly([(Q(3, 2), 1), (Q(1, 4), 2)])
    assert format_series(f) == "(2*x^{1/4} + x^{3/2})*t^{5/8} + x*t^{2} + O(t^{3})"


def test_parse_reports_position():
    with pytest.raises(ParseError) as err:
        parse_series("x + ?", P3, Mode.FORMAL)
    assert err.value.position == 4


def test_parse_wrong_variable_for_mode():
    with pytest.raises(ParseError):
        parse_series("1 + t", PD2, Mode.ARITHMETIC)
    with pytest.raises(ParseError):
        parse_series("1 + p", P3, Mode.FORMAL)


def test_parse_zero():
    assert parse_series("0", P3, Mode.FORMAL).is_zero
    f = parse_series("0 + O(t^{2})", P3, Mode.FORMAL)
    assert f.is_zero and f.prec == Q(2)


def test_parse_bare_frontier():
    f = parse_series("O(t^{5/2})", P3, Mode.FORMAL)
    assert f.is_zero and f.prec == Q(5, 2)


def test_parse_lattice_violation():
    strict = PerfectPoly(2, "p-power")
    with pytest.raises(Exception):
        parse_series("x^{1/3}*t", strict, Mode.FORMAL)


def test_parse_coefficients_only_for_poly_domains():
    with pytest.raises(ParseError):
        parse_series("x*p", PD2, Mode.ARITHMETIC)


def test_format_zero():
    assert format_series(Series.make(P3, Mode.FORMAL, [])) == "0"


def test_roundtrip_examples():
    md = MixedPoly(2, 8)
    cases = [
        ("x*t^{1/2} + x^{3}", P3, Mode.FORMAL),
        ("(x^{3/2} + 2*x^{1/4})*t^{5/8} + x*t^{2} + O(t^{3})", P3, Mode.FORMAL),
        ("3*p^{1/2} + 1", PD2, Mode.ARITHMETIC),
        ("(x + 3)*p^{1/2} + x^{2}*p", md, Mode.ARITHMETIC),
        ("0", P3, Mode.FORMAL),
        ("5", PadicDigits(7), Mode.ARITHMETIC),
    ]
    for text, dom, mode in cases:
        f = parse_series(text, dom, mode)
        assert parse_series(format_series(f), dom, mode) == f


def test_format_infinite_precision_has_no_o_term():
    f = parse_series("x*t", P3, Mode.FORMAL)
    assert f.prec == INF
    assert "O(" not in format_series(f)


# --- the one-pass tokenizer against the earlier per-token loop --------------

_REFERENCE_TOKEN_RE = re.compile(r"\s*(\d+|[A-Za-z]+|[+*^{}()/])")


def reference_tokens(text):
    """The earlier tokenizer, kept as a reference: before each token it slices
    the rest of the text and strips it.  Returns the (token, position) list,
    or the error message and position."""
    pos, tokens = 0, []
    while pos < len(text):
        rest = text[pos:]
        if not rest.strip():
            break
        m = _REFERENCE_TOKEN_RE.match(text, pos)
        if not m:
            stripped = rest.lstrip()
            at = len(text) - len(stripped)
            return ParseError(f"unexpected character {stripped[0]!r}", at).args, at
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    return tokens


def tokens_of(text):
    try:
        return _Tokenizer(text).tokens
    except ParseError as err:
        return err.args, err.position


# ASCII tokens, Unicode spaces and digits (which \s and \d accept), and
# characters no token starts with
_ALPHABET = list("0123456789 xtpO+*^{}()/") + [
    "\t", "\n", "\x0b", "\x1c", "\xa0", "\u2003", "\u0663", "\xb2", "?", "-", ".", "\xe9", "_",
]


def _mutate(rng, text):
    chars = list(text)
    for _ in range(rng.randrange(1, 4)):
        at = rng.randrange(0, len(chars) + 1)
        op = rng.randrange(3)
        if op == 0 or not chars[at:]:
            chars.insert(at, rng.choice(_ALPHABET))
        elif op == 1:
            del chars[at]
        else:
            chars[at] = rng.choice(_ALPHABET)
    return "".join(chars)


def test_tokenizer_matches_reference_loop():
    rng = random.Random(8)
    literals = [
        "(x^{3/2} + 2*x^{1/4})*t^{5/8} + x*t^{2} + O(t^{3})",
        "3*p^{1/2} + 1",
        "(x + 3)*p^{1/2} + x^{2}*p",
        "  x*t   + O(t^{7/4})  ",
    ]
    corpus = ["", " ", "\t\n", "?", " ?", "x ?", "12 34"]
    corpus += ["".join(rng.choice(_ALPHABET) for _ in range(rng.randrange(1, 30))) for _ in range(2000)]
    corpus += [_mutate(rng, rng.choice(literals)) for _ in range(2000)]
    errors = 0
    for text in corpus:
        expected = reference_tokens(text)
        assert tokens_of(text) == expected, text
        errors += not isinstance(expected, list)
    assert 0 < errors < len(corpus)


# --- every ParseError names its cause and its position ---------------------


@pytest.mark.parametrize(
    "text, domain, mode, message, position",
    [
        ("x^", P3, Mode.FORMAL, "unexpected end of input", 2),
        ("O(t^{2)", P3, Mode.FORMAL, "expected '}', found ')'", 6),
        ("t^{x}", P3, Mode.FORMAL, "expected a number, found 'x'", 3),
        ("t^{1/x}", P3, Mode.FORMAL, "expected a denominator, found 'x'", 5),
        ("t^{1/0}", P3, Mode.FORMAL, "zero denominator", 5),
        ("(x + t)", P3, Mode.FORMAL, "expected a coefficient monomial, found 't'", 5),
        ("x +", P3, Mode.FORMAL, "empty term", 3),
        ("t*t", P3, Mode.FORMAL, "repeated series variable 't'", 2),
        ("(1)*p", PD2, Mode.ARITHMETIC, "polynomial coefficients need a polynomial domain", 0),
        ("", P3, Mode.FORMAL, "empty series literal", 0),
        ("O(t^{1}) + O(t^{2})", P3, Mode.FORMAL, "multiple precision terms", 11),
        ("x t", P3, Mode.FORMAL, "trailing input 't'", 2),
    ],
)
def test_parse_error_message_and_position(text, domain, mode, message, position):
    with pytest.raises(ParseError) as err:
        parse_series(text, domain, mode)
    assert str(err.value) == f"{message} (at position {position})"
    assert err.value.position == position


def test_parse_exponent_without_braces():
    f = parse_series("t^2", P3, Mode.FORMAL)
    assert f.support == (Q(2),)
    assert f == parse_series("t^{2}", P3, Mode.FORMAL)
    assert format_series(f) == "t^{2}"


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="this interpreter has no int-string limit")
def test_integer_longer_than_the_int_string_limit_is_a_parse_error():
    limit = sys.get_int_max_str_digits()
    with pytest.raises(ParseError) as err:
        parse_series("1 + " + "7" * (limit + 1) + "*p", PD2, Mode.ARITHMETIC)
    assert str(err.value) == (f"integer of {limit + 1} digits exceeds the interpreter's "
                              f"limit of {limit} digits (at position 4)")
    assert err.value.position == 4
    # a run at the limit still parses
    f = parse_series("7" * limit + "*p", PD2, Mode.ARITHMETIC)
    assert f == parse_series(f"{int('7' * limit) % 2**32}*p", PD2, Mode.ARITHMETIC)
