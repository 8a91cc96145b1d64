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

``--prec-N`` is read by the padic and mixed domains (default 32) and
``--denominators`` by the perfect and mixed ones (default any), but not by
``approx``; a domain flag the chosen domain or command does not read exits
1.  ``--format`` exists only where a second format does.

Exit codes: 0 success, 1 usage/parse/domain error, 2 property-suite failure.
All randomness is seeded (default 0) and reports are byte-stable.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence, Tuple

from .domains import MixedPoly, PadicDigits, PerfectPoly
from .errors import MNSeriesError
from .export import (
    _json_text,
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
from .verify import format_report, run_suite, suite_names

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


_DOMAINS = {"perfect": PerfectPoly, "padic": PadicDigits, "mixed": MixedPoly}


class _DomainField(argparse.Action):
    """Collect a given domain flag in ``args.given`` as {init field: (flag, value)}."""

    def __call__(self, parser, namespace, values, option_string=None):
        namespace.given = {**namespace.given, self.dest: (self.option_strings[0], values)}


def _add_series_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mode", choices=["formal", "arithmetic"], default="formal")
    p.add_argument("--p", type=int, default=2, help="prime of the coefficient domain")
    p.add_argument("--prec-N", dest="N", type=int, action=_DomainField,
                   help="digit modulus exponent, read by the padic and mixed domains (default 32)")
    p.add_argument("--domain", choices=list(_DOMAINS), default=None)
    p.add_argument("--denominators", choices=["p-power", "any"], action=_DomainField,
                   help="exponent lattice, read by the perfect and mixed domains (default any)")
    p.set_defaults(given={})


def _add_output_flags(p: argparse.ArgumentParser, *formats: str) -> None:
    p.add_argument("--out", default=None, help="output path (stdout when omitted)")
    if formats:
        p.add_argument("--format", choices=["text", *formats], default="text")


def _domain_of(args):
    """The domain ``--domain`` names, built from the domain flags given only;
    a flag the class has no init field for is refused."""
    name = args.domain or ("perfect" if args.mode == "formal" else "padic")
    cls = _DOMAINS[name]
    fields = {f.name for f in dataclasses.fields(cls) if f.init}
    for field, (flag, _) in args.given.items():
        if field not in fields:
            raise MNSeriesError(f"the {name} domain does not read {flag}")
    return cls(args.p, **{field: value for field, (_, value) in args.given.items()})


def _parse(args, text: str):
    return parse_series(text, _domain_of(args), Mode(args.mode))


def _emit(text: str, out: Optional[str]) -> int:
    """Write ``text`` to ``out`` (stdout when None); exit code 0."""
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mnseries",
        description="Exact Gauss valuations, Newton polygons and Legendre transforms "
        "on truncated Mal'cev-Neumann series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_np = sub.add_parser("np", help="Newton polygon of a series")
    p_np.set_defaults(run=_cmd_np)
    p_np.add_argument("series")
    _add_series_flags(p_np)
    _add_output_flags(p_np, "csv", "svg", "json")

    p_leg = sub.add_parser("leg", help="Legendre transform of the polygon")
    p_leg.set_defaults(run=_cmd_leg)
    p_leg.add_argument("series")
    p_leg.add_argument("--s", action="append", type=_fraction, required=True)
    _add_series_flags(p_leg)
    _add_output_flags(p_leg, "csv", "svg", "json")

    p_gauss = sub.add_parser("gauss", help="Gauss valuation at sample parameters")
    p_gauss.set_defaults(run=_cmd_gauss)
    p_gauss.add_argument("series")
    p_gauss.add_argument("--s", action="append", type=_fraction, required=True)
    _add_series_flags(p_gauss)
    _add_output_flags(p_gauss)

    for name, help_text, formats in (("mul", "product of two series", ("json",)),
                                     ("add", "sum of two series", ())):
        p_op = sub.add_parser(name, help=help_text)
        p_op.set_defaults(run=_cmd_binop)
        p_op.add_argument("left")
        p_op.add_argument("right")
        _add_series_flags(p_op)
        _add_output_flags(p_op, *formats)

    p_canon = sub.add_parser("canon", help="canonical digit form")
    p_canon.set_defaults(run=_cmd_canon)
    p_canon.add_argument("series")
    _add_series_flags(p_canon)
    _add_output_flags(p_canon)

    p_approx = sub.add_parser("approx", help="discrete approximation of convex targets")
    p_approx.set_defaults(run=_cmd_approx)
    nodes_or_profiles = p_approx.add_mutually_exclusive_group(required=True)
    nodes_or_profiles.add_argument("--target", action="append", type=_target,
                                   help="node as i=num/den (repeatable)")
    nodes_or_profiles.add_argument("--mu", action="append", type=_fraction,
                                   help="profile exponent in (0,1) (repeatable)")
    p_approx.add_argument("--depth", type=int, help="profile depth, with --mu only (default 16)")
    _add_series_flags(p_approx)
    _add_output_flags(p_approx)

    p_chain = sub.add_parser("chain", help="pairwise separation report")
    p_chain.set_defaults(run=_cmd_chain)
    p_chain.add_argument("--mu", action="append", type=_fraction, required=True)
    p_chain.add_argument("--depth", type=int, default=128)
    p_chain.add_argument("--p", type=int, default=2)
    _add_output_flags(p_chain, "json")

    p_sup = sub.add_parser("example-sup", help="strict-infimum example values")
    p_sup.set_defaults(run=_cmd_example_sup)
    p_sup.add_argument("--s", type=_fraction, default=Fraction(1))
    p_sup.add_argument("--depth", type=int, default=20)
    _add_output_flags(p_sup, "csv")

    p_verify = sub.add_parser("verify", help="run property suites")
    p_verify.set_defaults(run=_cmd_verify)
    p_verify.add_argument("suite", nargs="?", default="all", choices=["all", *suite_names()],
                          help="suite name or 'all' (default)")
    p_verify.add_argument("--cases", type=int, default=200)
    p_verify.add_argument("--seed", type=int, default=0)
    _add_output_flags(p_verify)

    return parser


@lru_cache(maxsize=1)
def _shared_parser() -> argparse.ArgumentParser:
    """One parser per process: parsing builds a fresh namespace, and no
    action changes a default in place (no ``append`` option has one, and a
    domain flag replaces ``given``), so calls share no state."""
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
        text = _json_text(payload)
    else:
        lines = [prefix + " ".join(f"{k}={format_value(v)}" for k, v in zip(keys, point))
                 for point in points]
        text = "\n".join(lines + list(footer)) + "\n"
    return _emit(text, args.out)


def _cmd_np(args) -> int:
    poly = newton_polygon(_parse(args, args.series))
    return _emit_points(args, poly.nodes, ("x", "y"), ("exponent", "valuation"), prefix="node ")


def _cmd_leg(args) -> int:
    poly = newton_polygon(_parse(args, args.series))
    samples = [(s, legendre_eval(poly, s)) for s in args.s]
    return _emit_points(args, samples, ("s", "value"), ("s", "legendre"))


def _cmd_gauss(args) -> int:
    f = _parse(args, args.series)
    lines = []
    for s in args.s:
        v, exact = gauss_valuation(f, s)
        extra = "" if f.is_zero else f" argnorm={format_value(argnorm(f, s))}"
        lines.append(f"s={format_value(s)} value={format_value(v)} "
                     f"exact={'true' if exact else 'false'}{extra}")
    return _emit("\n".join(lines) + "\n", args.out)


def _cmd_binop(args) -> int:
    f = _parse(args, args.left)
    g = _parse(args, args.right)
    if args.command == "add":
        return _emit(format_series(add(f, g)) + "\n", args.out)
    result, trace = mul(f, g)
    if args.format == "text":
        return _emit(format_series(result) + "\n", args.out)
    payload = {
        "product": format_series(result),
        "trace": [
            {"i": format_value(i), "j": format_value(j), "k": format_value(k)}
            for i, j, k in trace.entries
        ],
    }
    return _emit(_json_text(payload), args.out)


def _cmd_canon(args) -> int:
    if args.mode != "arithmetic":
        raise MNSeriesError("canon applies to arithmetic-mode series (--mode arithmetic)")
    return _emit(format_series(_parse(args, args.series)) + "\n", args.out)  # the parse carried it


def _in_mode(args, series):
    """``series``, refused unless approx's domain gave it ``--mode``'s mode."""
    if series.mode is not Mode(args.mode):
        raise MNSeriesError(f"approx on the {series.domain.kind} domain builds "
                            f"{series.mode.value} series, not --mode {args.mode}")
    return series


def _cmd_approx(args) -> int:
    # every digit approx builds has an exponent m/p^k, which both lattices hold
    if "denominators" in args.given:
        raise MNSeriesError("approx does not read --denominators")
    domain = _domain_of(args)
    if args.target:
        if args.depth is not None:
            raise MNSeriesError("approx reads --depth with --mu only, not with --target")
        series, cert = discretely_approximate(args.target, domain)
        return _emit(certificate_text(cert) + "series: "
                     + format_series(_in_mode(args, series)) + "\n", args.out)
    depth = 16 if args.depth is None else args.depth
    chunks = []
    for mu in args.mu:
        profile = ProfileElement.for_exponent(mu, domain)
        mat = _in_mode(args, materialize(profile, depth))
        head = ", ".join(
            f"q_{i}={format_value(profile.digit_exponent(i))}"
            for i in range(1, min(depth, 6) + 1)
        )
        chunks.append(f"mu={format_value(Fraction(mu))} r={format_value(profile.r)} "
                      f"depth={depth} {head}\nseries: {format_series(mat)}")
    return _emit("\n".join(chunks) + "\n", args.out)


def _cmd_chain(args) -> int:
    report = chain_report(args.mu, depth=args.depth, domain=PerfectPoly(args.p, "p-power"))
    text = chain_report_json(report) if args.format == "json" else chain_report_text(report)
    return _emit(text, args.out)


def _cmd_example_sup(args) -> int:
    values, limit = supremum_example(args.s, args.depth)
    points = [(Fraction(n + 1), v) for n, v in enumerate(values)]
    return _emit_points(args, points, ("n", "value"), ("n", "value"),
                        footer=[f"limit={format_value(limit)}"])


def _cmd_verify(args) -> int:
    names = suite_names() if args.suite == "all" else [args.suite]
    results = [run_suite(name, args.cases, args.seed) for name in names]
    _emit(format_report(results), args.out)
    return 0 if all(r.passed for r in results) else 2


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:  # argparse: 0 after --help, 2 on a usage error
        return 1 if exc.code else 0
    try:
        return args.run(args)
    except (MNSeriesError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
