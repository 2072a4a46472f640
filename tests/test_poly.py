"""Ring operations and the string/JSON forms of x-polynomials."""

import pytest
from hypothesis import given, settings, strategies as st

from triads.poly import DegreeLimitError, P_ONE, P_ZERO, Poly, X, parse_poly, set_degree_cap, x_power
from triads.scalar import Q, ZERO, as_scalar


def test_square_of_binomial():
    assert (X - P_ONE) * (X - P_ONE) == parse_poly("x^2 - 2*x + 1")


def test_multiplicative_identity():
    p = parse_poly("(1+q)*x^2 - 3")
    assert p * P_ONE == p


def test_addition():
    assert (X - P_ONE) + P_ONE == X


def test_times_x():
    assert P_ONE.times_x() == X
    assert (X - P_ONE).times_x() == parse_poly("x^2 - x")
    assert P_ZERO.times_x() == P_ZERO


def test_eval():
    assert ((X - P_ONE) ** 2).eval(1) == ZERO
    assert (X * (X - P_ONE)).eval(Q) == Q**2 - Q
    assert P_ZERO.eval(Q + 1) == ZERO


def test_degree_bookkeeping():
    assert P_ZERO.degree() == 0 and P_ZERO.is_zero()
    assert x_power(5).degree() == 5
    assert (x_power(3) - x_power(3)).is_zero()


def test_degree_cap_enforced():
    with pytest.raises(DegreeLimitError):
        x_power(65)
    with pytest.raises(DegreeLimitError):
        x_power(40) * x_power(40)
    old = set_degree_cap(80)
    try:
        assert x_power(70).degree() == 70
    finally:
        set_degree_cap(old)


def test_degree_cap_message_is_the_same_on_every_path():
    paths = (
        lambda: x_power(65),
        lambda: Poly([0] * 65 + [1]),
        lambda: x_power(40) * x_power(25),
        lambda: x_power(64).times_x(),
    )
    for path in paths:
        with pytest.raises(DegreeLimitError) as info:
            path()
        assert str(info.value) == "degree 65 exceeds cap 64"


def test_division_by_constant_only():
    assert (X + X) / as_scalar(2) == X
    with pytest.raises(ValueError):
        (X * X) / X


def test_json_coefficients_ascend():
    p = parse_poly("(1+q)*x^3 - q*x + 1/2")
    assert p.json_coefficients() == ["1/2", "-q", "0", "1 + q"]


def test_string_descends():
    assert str(parse_poly("1 + x + x^2")) == "x^2 + x + 1"
    assert str(P_ZERO) == "0"


coeffs = st.integers(min_value=-6, max_value=6)


@st.composite
def polys(draw):
    body = draw(st.lists(coeffs, min_size=1, max_size=5))
    if draw(st.booleans()):
        return Poly(body)
    return Poly([as_scalar(c) + Q * as_scalar(draw(coeffs)) for c in body])


@settings(deadline=None)
@given(polys(), polys(), polys())
def test_ring_laws(p, r, s):
    assert p + r == r + p
    assert p * r == r * p
    assert (p + r) + s == p + (r + s)
    assert (p * r) * s == p * (r * s)
    assert p * (r + s) == p * r + p * s


@settings(deadline=None)
@given(polys(), polys())
def test_no_zero_divisors(p, r):
    if not p.is_zero() and not r.is_zero():
        assert (p * r).degree() == p.degree() + r.degree()


@settings(deadline=None)
@given(polys(), polys(), st.integers(min_value=-3, max_value=3))
def test_eval_is_homomorphism(p, r, v):
    s = as_scalar(v)
    assert (p * r).eval(s) == p.eval(s) * r.eval(s)
    assert (p + r).eval(s) == p.eval(s) + r.eval(s)


@settings(deadline=None)
@given(polys())
def test_poly_text_round_trip(p):
    assert parse_poly(str(p)) == p
