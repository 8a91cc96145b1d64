"""CSV, SVG and JSON emission for polygons, Legendre samples and reports.

CSV rows carry both a decimal rendering (shortest round-trip float, for
plotting convenience) and the exact numerator/denominator columns; the
schema is ``x,y,num_x,den_x,num_y,den_y``.  SVG output is a static
polyline with axis labels; its coordinates are floating-point
approximations, flagged in a header comment.  All emitters are
byte-stable for fixed input.

Every JSON payload goes through one writer, :func:`_json_text`.  It prints
the bytes of ``json.dumps(payload, indent=2, sort_keys=True)`` and a final
newline, for the plain types the CLI builds: dict (str keys only), list and
tuple, str, int, bool, None and float (``NaN`` and ``Infinity`` as the
standard library spells them).  Anything else, a Fraction or a set or a
non-str key, raises ``TypeError``.  The standard library's C encoder takes
no indent, so ``json.dumps`` with one runs its pure-Python encoder, a chain
of generators; this writer appends to one list instead and escapes strings
with the C escaper that ``json.dumps`` itself uses.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import List, Sequence, Tuple

from .profiles import ApproxCertificate, ChainReport
from .values import format_value

__all__ = [
    "points_csv",
    "points_svg",
    "chain_report_text",
    "chain_report_json",
    "certificate_text",
]

CSV_HEADER = "x,y,num_x,den_x,num_y,den_y"
_escape = json.encoder.encode_basestring_ascii  # the C escaper, as json.dumps uses
_JSON_WORDS = {None: "null", True: "true", False: "false"}


def _json_text(payload) -> str:
    """The one JSON writer: sorted keys, a two-space indent, a final newline."""
    out: List[str] = []
    _json_write(payload, out, "\n")
    out.append("\n")
    return "".join(out)


def _json_write(o, out: List[str], nl: str) -> None:
    """Append the JSON of ``o`` to ``out``; ``nl`` is a newline and the indent
    of the line ``o`` starts on.  The type checks run in the standard
    library encoder's order, so a bool prints as ``true``, not as an int."""
    if isinstance(o, str):
        out.append(_escape(o))
    elif o is None or o is True or o is False:
        out.append(_JSON_WORDS[o])
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    elif isinstance(o, float):
        out.append(float.__repr__(o) if math.isfinite(o)
                   else "NaN" if o != o else "Infinity" if o > 0 else "-Infinity")
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for item in o:
            out.append(sep)
            _json_write(item, out, inner)
            sep = "," + inner
        out.append(nl + "]")
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        if not all(isinstance(key, str) for key in o):
            raise TypeError("JSON object keys must be str")
        inner = nl + "  "
        sep = "{" + inner
        for key in sorted(o):
            out.append(sep + _escape(key) + ": ")
            _json_write(o[key], out, inner)
            sep = "," + inner
        out.append(nl + "}")
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def points_csv(points: Sequence[Tuple[Fraction, Fraction]]) -> str:
    lines = [CSV_HEADER]
    for x, y in points:
        x, y = Fraction(x), Fraction(y)
        lines.append(
            f"{float(x)!r},{float(y)!r},{x.numerator},{x.denominator},{y.numerator},{y.denominator}"
        )
    return "\n".join(lines) + "\n"


def points_svg(
    points: Sequence[Tuple[Fraction, Fraction]],
    x_label: str = "x",
    y_label: str = "y",
) -> str:
    """Static SVG 1.1 polyline through the given points with axis labels."""
    width, height = 640, 480
    pts = [(float(x), float(y)) for x, y in points]
    if not pts:
        raise ValueError("nothing to plot")
    margin = 50.0
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    def sx(x: float) -> float:
        return margin + (x - x_lo) / x_span * (width - 2 * margin)

    def sy(y: float) -> float:
        return height - margin - (y - y_lo) / y_span * (height - 2 * margin)

    poly = " ".join(f"{sx(x):.3f},{sy(y):.3f}" for x, y in pts)
    lines: List[str] = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        "<!-- coordinates are floating-point approximations of exact rationals -->",
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" stroke="black"/>',
        f'<text x="{width / 2:.1f}" y="{height - 12}" text-anchor="middle" font-size="14">{x_label}</text>',
        f'<text x="16" y="{height / 2:.1f}" text-anchor="middle" font-size="14" transform="rotate(-90 16 {height / 2:.1f})">{y_label}</text>',
        f'<text x="{margin}" y="{height - margin + 16}" font-size="11">{x_lo:.6g}</text>',
        f'<text x="{width - margin}" y="{height - margin + 16}" text-anchor="end" font-size="11">{x_hi:.6g}</text>',
        f'<text x="{margin - 6}" y="{height - margin}" text-anchor="end" font-size="11">{y_lo:.6g}</text>',
        f'<text x="{margin - 6}" y="{margin + 4}" text-anchor="end" font-size="11">{y_hi:.6g}</text>',
        f'<polyline points="{poly}" fill="none" stroke="steelblue" stroke-width="2"/>',
    ]
    for x, y in pts:
        lines.append(f'<circle cx="{sx(x):.3f}" cy="{sy(y):.3f}" r="3" fill="crimson"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def chain_report_text(report: ChainReport) -> str:
    lines = [
        f"chain grid={','.join(format_value(m) for m in report.mu_grid)} depth={report.depth}"
    ]
    for mu, lam, verdict, separated in report.pairs:
        status = "separated" if separated else "NOT-SEPARATED"
        lines.append(
            f"pair mu={format_value(mu)} lambda={format_value(lam)} verdict={verdict} {status}"
        )
    for mu, member in report.membership:
        lines.append(f"ideal mu={format_value(mu)} in_m={'true' if member else 'false'}")
    for mu, rows in report.ratios:
        rendered = " ".join(f"s={format_value(s)}:{ratio:.6f}" for s, ratio in rows)
        lines.append(f"ratio mu={format_value(mu)} {rendered}")
    lines.append(
        f"result separated={'all' if report.all_separated else 'INCOMPLETE'} "
        f"ideal={'all' if report.all_in_ideal else 'INCOMPLETE'}"
    )
    return "\n".join(lines) + "\n"


def chain_report_json(report: ChainReport) -> str:
    payload = {
        "grid": [format_value(m) for m in report.mu_grid],
        "depth": report.depth,
        "pairs": [
            {
                "mu": format_value(mu),
                "lambda": format_value(lam),
                "verdict": verdict,
                "separated": separated,
            }
            for mu, lam, verdict, separated in report.pairs
        ],
        "membership": [
            {"mu": format_value(mu), "in_m": member} for mu, member in report.membership
        ],
        "ratios": [
            {
                "mu": format_value(mu),
                "samples": [{"s": format_value(s), "ratio": ratio} for s, ratio in rows],
            }
            for mu, rows in report.ratios
        ],
        "all_separated": report.all_separated,
        "all_in_ideal": report.all_in_ideal,
    }
    return _json_text(payload)


def certificate_text(cert: ApproxCertificate) -> str:
    lines = ["discrete-approximation certificate"]
    for (i, target, q, k), dev, bound in zip(cert.nodes, cert.deviations, cert.bounds):
        lines.append(
            f"node i={i} target={format_value(target)} q={format_value(q)} "
            f"denominator_scale=p^{k} deviation={format_value(dev)} bound={format_value(bound)}"
        )
    for idx, sd in enumerate(cert.secant_deviations):
        lines.append(f"secant {idx}: deviation={format_value(sd)}")
    lines.append(
        f"max_deviation={format_value(cert.max_deviation)} status={'ok' if cert.ok else 'VIOLATED'}"
    )
    return "\n".join(lines) + "\n"
