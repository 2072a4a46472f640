"""Differential tests of the Q(q) kernel against sympy.

sympy is a test-only dependency: the package itself stays standard library
only, and this module is skipped where sympy is not installed.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from triads.scalar import QPoly, Scalar

sympy = pytest.importorskip("sympy")

q = sympy.Symbol("q")


def to_sympy(cs: list) -> "sympy.Poly":
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(cs)], q, domain="QQ")


def from_sympy(p: "sympy.Poly") -> QPoly:
    return QPoly([Fraction(int(c.p), int(c.q)) for c in reversed(p.all_coeffs())])


rationals = st.fractions(min_value=-40, max_value=40, max_denominator=10)
small_lists = st.lists(st.one_of(rationals, st.integers(-40, 40)), min_size=1, max_size=8)


@settings(deadline=None, max_examples=60)
@given(small_lists, small_lists, small_lists)
def test_canonical_form_matches_cancel(common, num, den):
    # A shared factor makes the cancellation do real work.
    assume(not QPoly(den).is_zero() and not QPoly(common).is_zero())
    s = Scalar(QPoly(common) * QPoly(num), QPoly(common) * QPoly(den))
    expr = sympy.cancel((to_sympy(common) * to_sympy(num)).as_expr() / (to_sympy(common) * to_sympy(den)).as_expr())
    n, d = sympy.fraction(expr)
    n, d = sympy.Poly(n, q, domain="QQ"), sympy.Poly(d, q, domain="QQ")
    lead = d.LC()
    assert s.num == from_sympy(n.quo_ground(lead))
    assert s.den == from_sympy(d.monic())


@settings(deadline=None, max_examples=60)
@given(small_lists, small_lists, small_lists)
def test_gcd_matches_monic_sympy_gcd(common, a, b):
    a = QPoly(common) * QPoly(a)
    b = QPoly(common) * QPoly(b)
    assume(not (a.is_zero() and b.is_zero()))
    expected = sympy.gcd(to_sympy(list(a.coeffs)), to_sympy(list(b.coeffs))).monic()
    assert QPoly.gcd(a, b) == from_sympy(expected)


wide_ints = st.integers(min_value=0, max_value=90).flatmap(lambda bits: st.integers(-(2**bits), 2**bits))
long_lists = st.one_of(
    st.lists(st.one_of(st.just(0), wide_ints, wide_ints), min_size=1, max_size=151),
    st.lists(st.one_of(st.just(0), wide_ints, rationals), min_size=1, max_size=151),
)


@settings(deadline=None, max_examples=60)
@given(long_lists, long_lists)
@example([(-1) ** i * (i + 1) * 10**12 for i in range(151)], [i * i - 50 for i in range(151)])
def test_product_matches_sympy_up_to_degree_300(a, b):
    assert QPoly(a) * QPoly(b) == from_sympy(to_sympy(a) * to_sympy(b))
