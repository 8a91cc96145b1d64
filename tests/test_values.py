"""Ordering and absorption laws of the extended value type."""

from fractions import Fraction as Q

import pytest

from mnseries import INF, as_exponent, as_gauss_param, format_value


def test_inf_is_maximum():
    assert Q(10**9) < INF
    assert INF > Q(10**9)
    assert not INF < INF
    assert INF == INF
    assert INF >= Q(0)
    assert min(Q(3), INF) == Q(3)


def test_inf_absorbs_addition():
    assert INF + Q(5) == INF
    assert Q(5) + INF == INF
    assert INF + INF == INF


def test_inf_not_equal_to_finite():
    assert INF != Q(7)
    assert Q(7) != INF


def test_sorting_mixed_values():
    assert sorted([INF, Q(1), Q(1, 2)]) == [Q(1, 2), Q(1), INF]


def test_exponent_validation():
    assert as_exponent(Q(3, 2)) == Q(3, 2)
    assert as_exponent(0) == 0
    with pytest.raises(ValueError):
        as_exponent(Q(-1, 2))


def test_gauss_param_validation():
    assert as_gauss_param(0) == 0
    assert as_gauss_param("3/4") == Q(3, 4)
    with pytest.raises(ValueError):
        as_gauss_param(-1)


@pytest.mark.parametrize("bad", [True, False, 0.5, 2.0, float("nan"), None, "1/0", "x", 1j])
def test_bool_and_float_are_not_exact_rationals(bad):
    with pytest.raises(ValueError, match="exact rational"):
        as_exponent(bad)
    with pytest.raises(ValueError, match="exact rational"):
        as_gauss_param(bad)


def test_format_value():
    assert format_value(Q(3, 2)) == "3/2"
    assert format_value(Q(4)) == "4"
    assert format_value(INF) == "+oo"
