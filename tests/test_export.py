"""CSV/SVG/JSON emitters: schema, exactness columns, byte stability."""

import json
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mnseries import PerfectPoly, chain_report, discretely_approximate
from mnseries.export import (
    _json_text,
    certificate_text,
    chain_report_json,
    chain_report_text,
    points_csv,
    points_svg,
)

P2 = PerfectPoly(2, "p-power")


def test_points_csv_carries_exact_columns():
    out = points_csv([(Q(1, 3), Q(5, 4))])
    header, row = out.strip().splitlines()
    assert header == "x,y,num_x,den_x,num_y,den_y"
    cols = row.split(",")
    assert cols[2:] == ["1", "3", "5", "4"]
    # the decimal rendering round-trips to the same float
    assert float(cols[0]) == 1 / 3 and float(cols[1]) == 1.25


def test_points_csv_is_byte_stable():
    pts = [(Q(0), Q(2)), (Q(2), Q(0))]
    assert points_csv(pts) == points_csv(pts)


def test_points_svg_structure():
    svg = points_svg([(Q(0), Q(2)), (Q(2), Q(0))], "exponent", "valuation")
    assert svg.splitlines()[0] == '<?xml version="1.0" encoding="UTF-8"?>'
    assert "floating-point approximations" in svg
    assert 'version="1.1"' in svg
    assert svg.count("<circle") == 2
    assert ">exponent</text>" in svg and ">valuation</text>" in svg
    assert svg == points_svg([(Q(0), Q(2)), (Q(2), Q(0))], "exponent", "valuation")


def test_points_svg_single_point_and_empty():
    svg = points_svg([(Q(1), Q(1))])
    assert "<polyline" in svg
    with pytest.raises(ValueError):
        points_svg([])


def test_certificate_text_fields():
    _, cert = discretely_approximate([(1, Q(1)), (2, Q(1, 2)), (3, Q(1, 3))], P2)
    text = certificate_text(cert)
    assert "node i=3 target=1/3 q=1/4 denominator_scale=p^2" in text
    assert text.endswith("status=ok\n")


def test_chain_report_serializations_agree():
    report = chain_report([Q(1, 4), Q(1, 2)], depth=8)
    text = chain_report_text(report)
    payload = json.loads(chain_report_json(report))
    assert "pair mu=1/4 lambda=1/2 verdict=omega separated" in text
    assert payload["pairs"] == [
        {"mu": "1/4", "lambda": "1/2", "verdict": "omega", "separated": True}
    ]
    assert payload["depth"] == 8
    assert [m["in_m"] for m in payload["membership"]] == [True, True]
    ratios = payload["ratios"][0]["samples"]
    assert len(ratios) == 7 and all(r["ratio"] > 0 for r in ratios)


# --- the one JSON writer prints json.dumps' bytes ------------------------------

_json_scalars = st.one_of(
    st.text(),  # non-ASCII, quotes, backslashes and control characters among them
    st.sampled_from(["", '"', "\\", "\x00\x1f\x7f", "\u00e9\u2028\U0001f600", "\ud800"]),
    st.integers(),
    st.booleans(),
    st.none(),
    st.floats(),  # nan and the infinities among them
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e300, float("nan"), float("inf"), float("-inf")]),
)
_json_payloads = st.recursive(
    _json_scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=24,
)


@given(_json_payloads)
@settings(max_examples=400, deadline=None, derandomize=True)
def test_json_text_prints_the_bytes_of_json_dumps(payload):
    assert _json_text(payload) == json.dumps(payload, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("payload", [
    Q(1, 2), {"x": [Q(1, 3)]}, {1, 2}, [{"a": frozenset()}], {1: "a"}, {"a": 1, 2: "b"}, b"x",
])
def test_json_text_refuses_what_is_not_a_plain_type(payload):
    with pytest.raises(TypeError):
        _json_text(payload)
