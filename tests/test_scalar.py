"""Field arithmetic, canonical forms, and the text grammar."""

import random
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from triads import scalar
from triads.scalar import (
    ONE,
    ParseError,
    PoleError,
    Q,
    QPoly,
    Scalar,
    ZERO,
    as_scalar,
    parse_scalar,
    q_factorial,
    q_integer,
    qpow,
)

from .oracles import schoolbook_product


def test_rational_addition():
    assert as_scalar(Fraction(1, 2)) + as_scalar(Fraction(1, 3)) == as_scalar(Fraction(5, 6))


def test_q_plus_one():
    assert str(Q + 1) == "1 + q"


def test_additive_inverse_across_denominators():
    assert ONE / (ONE - Q) + ONE / (Q - ONE) == ZERO


def test_difference_of_squares():
    assert (ONE + Q) * (ONE - Q) == parse_scalar("1 - q^2")


def test_zero_absorbs():
    x = parse_scalar("(3 - q) / (1 + 2*q)")
    assert x * ZERO == ZERO


def test_multiplicative_inverse():
    x = (ONE + Q) / (ONE - Q)
    y = (ONE - Q) / (ONE + Q)
    assert x * y == ONE


def test_exact_cancellation_in_division():
    assert (Q**2 - 1) / (Q - 1) == Q + 1


def test_reciprocal_is_canonical():
    r = ONE / (ONE + Q)
    assert r.num == QPoly([1])
    assert r.den == QPoly([1, 1])
    # constants are canonical too: integral Fractions become ints, zero is ZERO
    two = as_scalar(Fraction(4, 2))
    assert two.num.coeffs == (2,) and type(two.num.coeffs[0]) is int
    assert as_scalar(0) == ZERO and as_scalar(False).num.coeffs == (0,)
    assert hash(as_scalar(3)) == hash(3)
    assert hash(as_scalar(Fraction(1, 2))) == hash(Fraction(1, 2))


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        (Q + 1) / ZERO


def test_eval_q_basics():
    assert (ONE + Q + Q**2).eval_q(1) == 3
    assert Q.eval_q(2) == 2


def test_eval_q_pole():
    with pytest.raises(PoleError):
        (ONE / (ONE - Q)).eval_q(1)


def test_q_integer_and_factorial():
    assert q_integer(3) == parse_scalar("1 + q + q^2")
    assert q_integer(0) == ZERO
    assert q_factorial(3) == parse_scalar("(1 + q) * (1 + q + q^2)")
    assert q_factorial(0) == ONE


def test_qpow_negative():
    assert qpow(-2) * qpow(2) == ONE


def test_integers_print_bare():
    assert str(as_scalar(17)) == "17"
    assert str(as_scalar(-3)) == "-3"
    assert str(ZERO) == "0"


def test_fraction_text_form():
    assert str(ONE / (ONE + Q)) == "1 / (1 + q)"
    assert str(as_scalar(Fraction(3, 2)) * Q) == "3/2*q"


def test_parse_errors():
    deep = ("(" * 400 + "1" + ")" * 400, "-" * 2000 + "1")  # past the recursion limit
    for bad in ("", "q +", "1 ^ q", "(1 + q", "2 $ 3", "q^^2") + deep:
        with pytest.raises(ParseError):
            parse_scalar(bad)


def test_parse_precedence():
    assert parse_scalar("1 - q^2 * 3") == ONE - as_scalar(3) * Q**2
    assert parse_scalar("-q^2") == -(Q**2)
    assert parse_scalar("6/2/3") == ONE
    assert parse_scalar("2^3") == as_scalar(8)


# -- randomized algebra ------------------------------------------------------

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=12)


@st.composite
def scalars(draw):
    num = draw(st.lists(rationals, min_size=1, max_size=4))
    if draw(st.booleans()):
        den = draw(st.lists(rationals, min_size=1, max_size=3))
        if QPoly(den).is_zero():
            den = [1]
        return Scalar(QPoly(num), QPoly(den))
    return Scalar(QPoly(num))


def _typed(coeffs):
    # coefficients with their types, so int 3 and Fraction(3) differ
    return [(c, type(c)) for c in coeffs]


@settings(deadline=None, max_examples=200)
@given(
    st.one_of(st.just(0), st.integers(-50, 50), rationals),
    st.one_of(st.just(0), st.integers(-50, 50), rationals),
)
def test_degree_zero_path_matches_qpoly_arithmetic(a, b):
    # the degree-0 path must build the tuples the QPoly route builds
    x, y = as_scalar(a), as_scalar(b)
    for result, reference in (
        (x + y, x.num + y.num),
        (x + b, x.num + y.num),
        (x - y, x.num - y.num),
        (x * y, x.num * y.num),
        (x * b, x.num * y.num),
    ):
        assert _typed(result.num.coeffs) == _typed(reference.coeffs)
        assert result.den.coeffs == (1,)
    assert x + y == as_scalar(a + b) and x * y == as_scalar(a * b)


@settings(deadline=None)
@given(scalars(), scalars(), scalars())
def test_field_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert a - a == ZERO
    if not a.is_zero():
        assert a * (ONE / a) == ONE


@settings(deadline=None)
@given(scalars(), scalars())
def test_equality_is_subtraction_to_zero(a, b):
    assert (a == b) == ((a - b).is_zero())


@settings(deadline=None)
@given(scalars())
def test_text_round_trip(a):
    assert parse_scalar(str(a)) == a


@settings(deadline=None)
@given(scalars(), scalars(), st.integers(min_value=-3, max_value=3))
def test_eval_is_homomorphism(a, b, v):
    try:
        av, bv, pv = a.eval_q(v), b.eval_q(v), (a * b).eval_q(v)
        sv = (a + b).eval_q(v)
    except PoleError:
        return
    assert pv == av * bv
    assert sv == av + bv


@settings(deadline=None)
@given(scalars())
def test_canonicalization_is_idempotent(a):
    again = Scalar(a.num, a.den)
    assert again.num == a.num and again.den == a.den
    assert a.den.lead() == 1
    assert QPoly.gcd(a.num, a.den).is_one() or a.is_zero()


# -- the QPoly product kernel -----------------------------------------------


@st.composite
def coefficient_lists(draw):
    """Coefficient lists long enough for either multiply path.

    Magnitudes run from single bits past 2^64, so every slot width is drawn;
    zeros fall inside and at both ends (the high end is trimmed by QPoly),
    and now and then one coefficient is a proper Fraction.
    """
    bits = draw(st.integers(min_value=0, max_value=80))
    value = st.integers(min_value=-(2**bits), max_value=2**bits)
    cs = draw(st.lists(st.one_of(st.just(0), value, value), min_size=1, max_size=60))
    cs = [0] * draw(st.integers(0, 3)) + cs + [0] * draw(st.integers(0, 2))
    if draw(st.integers(0, 7)) == 0:
        cs[draw(st.integers(0, len(cs) - 1))] = draw(st.fractions(max_denominator=9).filter(lambda f: f.denominator > 1))
    return cs


@settings(deadline=None, max_examples=300)
@given(coefficient_lists(), coefficient_lists())
def test_product_matches_schoolbook_oracle(a, b):
    assert (QPoly(a) * QPoly(b)).coeffs == QPoly(schoolbook_product(a, b)).coeffs


def _spy(monkeypatch, name):
    calls = []
    real = getattr(scalar, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(scalar, name, spy)
    return calls


@pytest.mark.parametrize(
    "length, magnitude, width",
    [
        (127, 1, 1),  # the central coefficient is +-127, the bound of a signed byte
        (128, 1, 2),
        (14, 48, 2),  # bound 48^2 * 14 = 32256, just under 2^15
        (8, 2**12, 4),
        (8, 2**25, 8),
        (8, 2**40, 11),
        (8, 2**70, 19),
    ],
)
def test_product_slot_widths(monkeypatch, length, magnitude, width):
    packs = _spy(monkeypatch, "_pack")
    rng = random.Random(length * magnitude)
    signs = [[rng.choice((-1, 1)) for _ in range(length)] for _ in range(3)]
    for sa, sb in ((signs[0], signs[1]), ([1] * length, [1] * length), ([-1] * length, signs[2])):
        a = [s * magnitude for s in sa]
        b = [s * magnitude for s in sb]
        assert (QPoly(a) * QPoly(b)).coeffs == tuple(schoolbook_product(a, b))
    assert {w for _, w in packs} == {width}
    assert len(packs) == 6


def _sparse(length, nonzeros, rng):
    cs = [0] * length
    for i in rng.sample(range(length - 1), nonzeros - 1) + [length - 1]:
        cs[i] = rng.choice((-3, -1, 1, 2, 5))
    return cs


def test_product_path_follows_density_and_coefficient_type(monkeypatch):
    kronecker = _spy(monkeypatch, "_kronecker_mul")
    rng = random.Random(5)
    dense = [rng.randint(-9, 9) or 1 for _ in range(40)]
    least = isqrt(scalar._KRONECKER_DENSITY * 200 - 1) + 1  # fewest nonzeros that qualify at length 100
    cases = [
        (dense, dense, True),
        (dense[:4], dense, False),  # the shorter operand has at most 4 coefficients
        ([0] * 80 + [1], [0] * 99 + [3], False),  # monomials, as q^k is built by squaring
        (_sparse(100, least - 1, rng), _sparse(100, least - 1, rng), False),
        (_sparse(100, least, rng), _sparse(100, least, rng), True),
        (dense[:-1] + [Fraction(1, 3)], dense, False),
        (dense, [Fraction(1, 2)] + dense, False),
    ]
    for a, b, fires in cases:
        before = len(kronecker)
        assert (QPoly(a) * QPoly(b)).coeffs == QPoly(schoolbook_product(a, b)).coeffs
        assert (len(kronecker) > before) == fires, (a, b)
