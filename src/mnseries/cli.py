"""Command-line front end.

Commands::

    np          Newton polygon of a series literal
    leg         Legendre transform of the polygon at sample points
    gauss       Gauss valuation (value, exactness flag, argnorm)
    mul / add   ring operations on two literals
    canon       canonical digit form of an arithmetic-mode literal
    approx      discrete approximation of target nodes, or a profile
    chain       pairwise separation report over an exponent grid
    example-sup term values of the strict-infimum example
    verify      seeded property suites (exit 2 on failure)

Exit codes: 0 success, 1 usage/parse/domain error, 2 property-suite failure.
All randomness is seeded (default 0) and reports are byte-stable.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

from .domains import MixedPoly, PadicDigits, PerfectPoly
from .errors import MNSeriesError
from .export import (
    certificate_text,
    chain_report_json,
    chain_report_text,
    points_csv,
    points_svg,
)
from .grammar import format_series, parse_series
from .polygon import legendre_eval, newton_polygon
from .profiles import (
    ProfileElement,
    chain_report,
    discretely_approximate,
    materialize,
    supremum_example,
)
from .series import Mode, add, argnorm, gauss_valuation, mul
from .values import format_value
from .verify import format_report, run_all, run_suite, suite_names

__all__ = ["main", "build_parser"]


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def _target(text: str) -> Tuple[int, Fraction]:
    try:
        idx, val = text.split("=", 1)
        return int(idx), Fraction(val)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"expected i=num/den, got {text!r}") from exc


def _add_series_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mode", choices=["formal", "arithmetic"], default="formal")
    p.add_argument("--p", type=int, default=2, help="prime of the coefficient domain")
    p.add_argument("--prec-N", dest="prec_n", type=int, default=32,
                   help="digit modulus exponent for p-adic domains")
    p.add_argument("--domain", choices=["perfect", "padic", "mixed"], default=None)
    p.add_argument("--denominators", choices=["p-power", "any"], default="any",
                   help="exponent lattice of polynomial coefficients")


def _add_output_flags(p: argparse.ArgumentParser, formats=("text", "csv", "svg", "json")) -> None:
    p.add_argument("--out", default=None, help="output path (stdout when omitted)")
    p.add_argument("--format", choices=list(formats), default="text")


def _domain_of(args):
    name = args.domain
    if name is None:
        name = "perfect" if args.mode == "formal" else "padic"
    if name == "perfect":
        return PerfectPoly(args.p, args.denominators)
    if name == "padic":
        return PadicDigits(args.p, args.prec_n)
    return MixedPoly(args.p, args.prec_n, args.denominators)


def _mode_of(args) -> Mode:
    return Mode.FORMAL if args.mode == "formal" else Mode.ARITHMETIC


def _parse(args, text: str):
    return parse_series(text, _domain_of(args), _mode_of(args))


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _require_s(args) -> List[Fraction]:
    if not args.s:
        raise MNSeriesError("at least one --s value is required")
    return args.s


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mnseries",
        description="Exact Gauss valuations, Newton polygons and Legendre transforms "
        "on truncated Mal'cev-Neumann series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_np = sub.add_parser("np", help="Newton polygon of a series")
    p_np.add_argument("series")
    _add_series_flags(p_np)
    _add_output_flags(p_np)

    p_leg = sub.add_parser("leg", help="Legendre transform of the polygon")
    p_leg.add_argument("series")
    p_leg.add_argument("--s", action="append", type=_fraction, default=[])
    _add_series_flags(p_leg)
    _add_output_flags(p_leg)

    p_gauss = sub.add_parser("gauss", help="Gauss valuation at sample parameters")
    p_gauss.add_argument("series")
    p_gauss.add_argument("--s", action="append", type=_fraction, default=[])
    _add_series_flags(p_gauss)
    _add_output_flags(p_gauss, formats=("text",))

    for name, help_text, formats in (("mul", "product of two series", ("text", "json")),
                                     ("add", "sum of two series", ("text",))):
        p_op = sub.add_parser(name, help=help_text)
        p_op.add_argument("left")
        p_op.add_argument("right")
        _add_series_flags(p_op)
        _add_output_flags(p_op, formats=formats)

    p_canon = sub.add_parser("canon", help="canonical digit form")
    p_canon.add_argument("series")
    _add_series_flags(p_canon)
    _add_output_flags(p_canon, formats=("text",))

    p_approx = sub.add_parser("approx", help="discrete approximation of convex targets")
    p_approx.add_argument("--target", action="append", type=_target, default=[],
                          help="node as i=num/den (repeatable)")
    p_approx.add_argument("--mu", action="append", type=_fraction, default=[],
                          help="profile exponent in (0,1) (alternative to --target)")
    p_approx.add_argument("--depth", type=int, default=16)
    _add_series_flags(p_approx)
    _add_output_flags(p_approx, formats=("text",))

    p_chain = sub.add_parser("chain", help="pairwise separation report")
    p_chain.add_argument("--mu", action="append", type=_fraction, default=[])
    p_chain.add_argument("--depth", type=int, default=128)
    p_chain.add_argument("--p", type=int, default=2)
    _add_output_flags(p_chain, formats=("text", "json"))

    p_sup = sub.add_parser("example-sup", help="strict-infimum example values")
    p_sup.add_argument("--s", type=_fraction, default=Fraction(1))
    p_sup.add_argument("--depth", type=int, default=20)
    _add_output_flags(p_sup, formats=("text", "csv"))

    p_verify = sub.add_parser("verify", help="run property suites")
    p_verify.add_argument("suite", nargs="?", default="all",
                          help="suite name or 'all' (default)")
    p_verify.add_argument("--cases", type=int, default=200)
    p_verify.add_argument("--seed", type=int, default=0)
    _add_output_flags(p_verify, formats=("text",))

    return parser


@lru_cache(maxsize=1)
def _shared_parser() -> argparse.ArgumentParser:
    """One parser per process: parsing builds a fresh namespace and copies
    each ``append`` default before extending it, so calls share no state."""
    return build_parser()


def _emit_points(args, points, keys: Tuple[str, str], labels: Tuple[str, str],
                 prefix: str = "", footer: Sequence[str] = ()) -> int:
    """Write (x, y) points in ``args.format``: text lines ``key=value``,
    csv, an svg with axis ``labels``, or a json list of ``keys`` objects."""
    if args.format == "csv":
        text = points_csv(points)
    elif args.format == "svg":
        text = points_svg(points, *labels)
    elif args.format == "json":
        payload = [dict(zip(keys, map(format_value, point))) for point in points]
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = [prefix + " ".join(f"{k}={format_value(v)}" for k, v in zip(keys, point))
                 for point in points]
        text = "\n".join(lines + list(footer)) + "\n"
    _emit(text, args.out)
    return 0


def _cmd_np(args) -> int:
    poly = newton_polygon(_parse(args, args.series))
    return _emit_points(args, poly.nodes, ("x", "y"), ("exponent", "valuation"), prefix="node ")


def _cmd_leg(args) -> int:
    poly = newton_polygon(_parse(args, args.series))
    samples = [(s, legendre_eval(poly, s)) for s in _require_s(args)]
    return _emit_points(args, samples, ("s", "value"), ("s", "legendre"))


def _cmd_gauss(args) -> int:
    f = _parse(args, args.series)
    lines = []
    for s in _require_s(args):
        v, exact = gauss_valuation(f, s)
        extra = ""
        if not f.is_zero:
            extra = f" argnorm={format_value(argnorm(f, s))}"
        lines.append(f"s={format_value(s)} value={format_value(v)} "
                     f"exact={'true' if exact else 'false'}{extra}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_binop(args) -> int:
    f = _parse(args, args.left)
    g = _parse(args, args.right)
    if args.command == "add":
        result = add(f, g)
        _emit(format_series(result) + "\n", args.out)
        return 0
    result, trace = mul(f, g)
    if args.format == "json":
        payload = {
            "product": format_series(result),
            "trace": [
                {"i": format_value(i), "j": format_value(j), "k": format_value(k)}
                for i, j, k in trace.entries
            ],
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        _emit(format_series(result) + "\n", args.out)
    return 0


def _cmd_canon(args) -> int:
    if args.mode != "arithmetic":
        raise MNSeriesError("canon applies to arithmetic-mode series")
    _emit(format_series(_parse(args, args.series)) + "\n", args.out)  # the parse carried it
    return 0


def _cmd_approx(args) -> int:
    if args.target and args.mu:
        raise MNSeriesError("approx takes --target nodes or --mu exponents, not both")
    domain = _domain_of(args)
    if args.target:
        series, cert = discretely_approximate(args.target, domain)
        _emit(certificate_text(cert) + "series: " + format_series(series) + "\n", args.out)
        return 0
    if args.mu:
        chunks = []
        for mu in args.mu:
            profile = ProfileElement.for_exponent(mu, domain)
            mat = materialize(profile, args.depth)
            head = ", ".join(
                f"q_{i}={format_value(profile.digit_exponent(i))}"
                for i in range(1, min(args.depth, 6) + 1)
            )
            chunks.append(f"mu={format_value(Fraction(mu))} r={format_value(profile.r)} "
                          f"depth={args.depth} {head}\nseries: {format_series(mat)}")
        _emit("\n".join(chunks) + "\n", args.out)
        return 0
    raise MNSeriesError("approx needs --target nodes or --mu exponents")


def _cmd_chain(args) -> int:
    if not args.mu:
        raise MNSeriesError("chain needs at least one --mu exponent")
    report = chain_report(args.mu, depth=args.depth, domain=PerfectPoly(args.p, "p-power"))
    text = chain_report_json(report) if args.format == "json" else chain_report_text(report)
    _emit(text, args.out)
    return 0


def _cmd_example_sup(args) -> int:
    values, limit = supremum_example(args.s, args.depth)
    points = [(Fraction(n + 1), v) for n, v in enumerate(values)]
    return _emit_points(args, points, ("n", "value"), ("n", "value"),
                        footer=[f"limit={format_value(limit)}"])


def _cmd_verify(args) -> int:
    if args.suite == "all":
        results = run_all(args.cases, args.seed)
    else:
        if args.suite not in suite_names():
            raise MNSeriesError(
                f"unknown suite {args.suite!r}; known: all, {', '.join(suite_names())}"
            )
        results = [run_suite(args.suite, args.cases, args.seed)]
    _emit(format_report(results), args.out)
    return 0 if all(r.passed for r in results) else 2


_HANDLERS = {
    "np": _cmd_np,
    "leg": _cmd_leg,
    "gauss": _cmd_gauss,
    "mul": _cmd_binop,
    "add": _cmd_binop,
    "canon": _cmd_canon,
    "approx": _cmd_approx,
    "chain": _cmd_chain,
    "example-sup": _cmd_example_sup,
    "verify": _cmd_verify,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:  # argparse: 0 after --help, 2 on a usage error
        return 1 if exc.code else 0
    try:
        return _HANDLERS[args.command](args)
    except (MNSeriesError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
