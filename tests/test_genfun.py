"""Truncated series arithmetic and the generating-function checks."""

import pytest
from hypothesis import given, settings, strategies as st

from triads.genfun import (
    NonUnitError,
    OrderMismatchError,
    Series,
    check_stirling1_polynomial,
    check_stirling2_series,
)
from triads.poly import Poly, parse_poly
from triads.psi import get_psi
from triads.scalar import as_scalar

from .oracles import int_stirling1


def test_series_product():
    s = Series([1, 1], 3) * Series([1, -1], 3)
    assert s == Series([1, 0, -1, 0], 3)


def test_series_identity():
    a = Series([2, 0, 5, 7], 3)
    assert a * Series.one(3) == a


def test_truncation_drops_high_terms():
    assert Series.x_power(3, 3) * Series.x_power(1, 3) == Series([], 3)


def test_reciprocal_of_one_minus_x_is_geometric():
    r = Series([1, -1], 4).recip()
    assert r == Series([1, 1, 1, 1, 1], 4)
    assert Series.one(4).recip() == Series.one(4)


def test_reciprocal_is_two_sided():
    a = Series([2, 3, -1, 5], 6)
    assert a * a.recip() == Series.one(6)
    assert a.recip() * a == Series.one(6)


def test_non_unit_has_no_reciprocal():
    with pytest.raises(NonUnitError):
        Series.x_power(1, 3).recip()


def test_order_mismatch():
    with pytest.raises(OrderMismatchError):
        Series.one(3) * Series.one(4)
    with pytest.raises(OrderMismatchError):
        Series.one(3) + Series.one(4)


@settings(deadline=None, max_examples=50)
@given(st.lists(st.integers(-5, 5), min_size=1, max_size=6))
def test_reciprocal_round_trip(coeffs):
    if coeffs[0] == 0:
        coeffs[0] = 1
    a = Series(coeffs, 8)
    assert a * a.recip() == Series.one(8)


def test_second_kind_series_classical_column_two():
    # {n 2} = 1, 3, 7, 15, ... against x^2/((1-x)(1-2x))
    cl = get_psi("classical")
    assert check_stirling2_series(cl, 2, 8)
    from triads.psi_extensions import psi_stirling_table

    values = [row[2] for row in psi_stirling_table(cl, 8, "second")[2:]]
    assert values == [as_scalar(2 ** (n - 1) - 1) for n in range(2, 9)]


def test_second_kind_series_all_builtins():
    for name in ("classical", "qfact", "fibonacci"):
        psi = get_psi(name)
        for k in range(5):
            assert check_stirling2_series(psi, k, 12)


def test_second_kind_series_k_zero_is_one():
    assert check_stirling2_series(get_psi("qfact"), 0, 6)


def test_series_check_rejects_bad_order():
    with pytest.raises(ValueError):
        check_stirling2_series(get_psi("classical"), 4, 2)


def test_first_kind_polynomial_classical_row_four():
    cl = get_psi("classical")
    assert check_stirling1_polynomial(cl, 4)
    lhs = Poly([as_scalar(int_stirling1(4, k)) for k in range(5)])
    assert lhs == parse_poly("x^4 + 6*x^3 + 11*x^2 + 6*x")


def test_first_kind_polynomial_all_builtins():
    for name in ("classical", "qfact", "fibonacci"):
        psi = get_psi(name)
        for n in range(1, 9):
            assert check_stirling1_polynomial(psi, n)


def test_first_kind_polynomial_base_case():
    assert check_stirling1_polynomial(get_psi("qfact"), 1)
    with pytest.raises(ValueError):
        check_stirling1_polynomial(get_psi("qfact"), 0)
