"""Field arithmetic, canonical forms, and the text grammar."""

import random
import re
import sys
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import example, given, settings, strategies as st

from triads import scalar
from triads.poly import P_ONE, Poly, parse_poly
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


def test_integral_fraction_sums_and_products_are_ints():
    half = as_scalar(Fraction(1, 2))
    for value, coeffs in (
        (half + half, (1,)),
        (half * (2 * Q), (0, 1)),
        (as_scalar(Fraction(2, 3)) * as_scalar(Fraction(3, 2)), (1,)),
        ((half + half) * Q, (0, 1)),
        ((half * Q + 1) + (half * Q + 2), (3, 1)),
    ):
        assert _typed(value.num.coeffs) == _typed(coeffs)
    assert _typed((QPoly([Fraction(1, 2), 1]) + QPoly([Fraction(1, 2)])).coeffs) == [(1, int), (1, int)]
    assert _typed((QPoly([Fraction(1, 2)]) * QPoly([0, 2])).coeffs) == [(0, int), (1, int)]


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


@pytest.mark.parametrize("text, token", [("²", "²"), ("٣*q", "٣"), ("q^²", "²"), ("1٣", "٣")])
def test_only_ascii_digits_are_numbers(text, token):
    # str.isdigit() and the regex \d accept other scripts' digits; int() reads
    # some of them and raises on others
    with pytest.raises(ParseError, match=repr(token)):
        parse_scalar(text)


def test_q_degree_cap():
    cap = scalar._Q_DEGREE_CAP
    assert parse_scalar(f"q^{cap}") == qpow(cap)
    assert parse_scalar(f"1 / q^{cap}") == qpow(-cap)
    assert parse_scalar("q^600 / q^600") == ONE  # the quotient, not its operands, is bounded
    assert parse_scalar(f"2^{cap}") == as_scalar(2**cap)
    refused = {
        f"q^{cap + 1}": f"exponent {cap + 1} exceeds cap",
        f"q^-{cap + 1}": f"exponent {cap + 1} exceeds cap",
        f"2^{cap + 1}": f"exponent {cap + 1} exceeds cap",
        "q^2000000": "exponent 2000000 exceeds cap",
        "(q^2)^600": "q-degree 1200 exceeds cap",  # refused before the power is computed
        "(1 + q^2)^-600": "q-degree 1200 exceeds cap",
        "q^600 * q^600": "q-degree 1200 exceeds cap",
        "q^600 / (1 + q^600)^-1": "q-degree 1200 exceeds cap",
        "1 / (1 + q^600) + 1 / (1 + q^601)": "q-degree 1201 exceeds cap",
        "q^600 * q^600 / q^600": "q-degree 1200 exceeds cap",
        # a polynomial term and a term with a denominator in one sum
        "1/(1+q^300) + q^1000": "q-degree 1300 exceeds cap",
        "q^1000 - 1/(1+q^300)": "q-degree 1300 exceeds cap",
        "2 - q^1000 + 1/(1+q^300) + q": "q-degree 1300 exceeds cap",
        "(q^1000 + q)/(1+q^300) - q^1000": "q-degree 1300 exceeds cap",
    }
    for text, message in refused.items():
        with pytest.raises(ParseError, match=re.escape(message)):
            parse_scalar(text)


def test_coefficient_bits_cap():
    cap = scalar._COEFF_BITS_CAP
    widest = 10**4300 - 1  # the largest int Python prints under its default digit limit
    assert parse_scalar(f"{widest}*q^5 - 1/{widest}") == widest * qpow(5) - Fraction(1, widest)
    assert parse_scalar("2^1024") == as_scalar(2**1024)
    assert parse_scalar("(9^1024)^4") == as_scalar(9**4096)  # the estimate 4 * 3247 bits is under the cap
    nine = "9^1024"  # 3247 bits
    refused = {
        # a power is refused on its estimate, before it is computed
        f"({nine})^1024 - ({nine})^1024 + 1": "coefficient of 3324928 bits",
        f"(1/{nine})^-6": "coefficient of 19482 bits",
        f"({nine}*q + 1)^6 - 1": "coefficient of 19482 bits",
        # a product or quotient after it is computed
        " * ".join([nine] * 6): "coefficient of 19477 bits",
        "1" + f" / {nine}" * 6: "coefficient of 19477 bits",
    }
    for text, message in refused.items():
        with pytest.raises(ParseError, match=re.escape(f"{message} exceeds cap {cap}")):
            parse_scalar(text)
    with pytest.raises(ParseError, match=re.escape(f"exceeds cap {cap}")):
        parse_poly(f"({nine}*x + q)^6")


def test_integer_tokens_past_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    assert parse_scalar("q^" + "0" * (limit - 1) + "1") == Q
    for text in ("7" * (limit + 1), "q^" + "1" * (limit + 1)):
        with pytest.raises(ParseError, match=f"integer of {limit + 1} digits exceeds the limit of {limit} digits"):
            parse_scalar(text)


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


@st.composite
def sum_terms(draw):
    """Signed terms of a sum: monomials, dense polynomials and quotients.

    Monomial coefficients are halves, so two of them often add up to an
    integer; now and then the terms are followed by their own negations,
    so the sum cancels to 0.
    """
    monomial = st.builds(
        lambda c, k: c * qpow(k),
        st.sampled_from((1, -1, 2, Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2))),
        st.integers(0, 40),
    )
    terms = draw(st.lists(st.tuples(st.booleans(), st.one_of(monomial, monomial, scalars())), min_size=1, max_size=12))
    if draw(st.integers(0, 4)) == 0:
        terms += [(not negate, term) for negate, term in terms]
    return terms


@settings(deadline=None, max_examples=200)
@given(sum_terms())
def test_parsed_sum_matches_the_fold(terms):
    text = "".join(f" {'-' if negate else '+'} ({term})" for negate, term in terms).removeprefix(" + ")
    total = ZERO
    for negate, term in terms:
        total = total - term if negate else total + term
    value = parse_scalar(text)
    assert value == total
    assert _typed(value.num.coeffs) == _typed(total.num.coeffs)
    assert _typed(value.den.coeffs) == _typed(total.den.coeffs)


def test_monomial_sum_makes_one_polynomial_addition(monkeypatch):
    # the terms of a sum of q-polynomials are added into one list in place
    terms = [f"{c}*q^{k}" for k, c in enumerate((3, Fraction(1, 2), 7, Fraction(-5, 2)) * 64)]
    text = " - ".join(terms[:100]) + " + " + " + ".join(terms[100:])
    expected = parse_scalar(text)
    calls = []
    real = QPoly.__add__

    def counting(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(QPoly, "__add__", counting)
    assert parse_scalar(text) == expected
    assert len(calls) <= 1


@st.composite
def printed_terms(draw):
    """Signed int terms (negate, c, e) of a printed polynomial, each with its printed text.

    Terms come in any order, with repeated exponents and zero coefficients,
    and in every form that reads as c*q^e: "c", "q", "q^e", "c*q", "c*q^e".
    """
    coefficient = st.one_of(st.integers(0, 3), st.integers(0, 10**45))
    exponent = st.one_of(st.integers(0, 3), st.integers(0, 60), st.sampled_from((1023, 1024)))
    terms = []
    for negate, c, e in draw(st.lists(st.tuples(st.booleans(), coefficient, exponent), min_size=1, max_size=30)):
        forms = [f"{c}*q^{e}"]
        if e == 0:
            forms.append(str(c))
        if e == 1:
            forms.append(f"{c}*q")
        if c == 1:
            forms.append("q" if e == 1 else f"q^{e}")
        terms.append((negate, c, e, draw(st.sampled_from(forms))))
    return terms


@settings(deadline=None, max_examples=200)
@given(printed_terms())
def test_printed_terms_read_as_the_general_path_reads_them(terms):
    # every term in parentheses is read by the general path, as in test_parsed_sum_matches_the_fold
    bare = "".join(f" {'-' if negate else '+'} {text}" for negate, _, _, text in terms).removeprefix(" + ")
    wrapped = "".join(f" {'-' if negate else '+'} ({text})" for negate, _, _, text in terms).removeprefix(" + ")
    expected = parse_scalar(wrapped)
    value = parse_scalar(bare)
    assert value == expected == sum((-c if negate else c) * qpow(e) for negate, c, e, _ in terms)
    assert _typed(value.num.coeffs) == _typed(expected.num.coeffs)
    assert value.den.coeffs == expected.den.coeffs == (1,)


def test_printed_polynomial_parses_without_products(monkeypatch):
    rng = random.Random(22)
    terms = [f"{rng.randint(2, 10**12)}*q^{e}" for e in range(200)]
    text = terms[0] + "".join(f" {rng.choice('+-')} {term}" for term in terms[1:])
    expected = parse_scalar(text)
    products = []
    real = QPoly.__mul__

    def counting(a, b):
        products.append((a, b))
        return real(a, b)

    monkeypatch.setattr(QPoly, "__mul__", counting)
    assert parse_scalar(text) == expected
    assert len(products) <= 1  # the first term's c * q^e


def _parse_error(text):
    with pytest.raises(ParseError) as info:
        parse_scalar(text)
    return str(info.value)


def test_terms_the_reader_declines_give_the_general_path_errors():
    limit = sys.get_int_max_str_digits()
    long_token = "7" * (limit + 1)
    past_limit = f"integer of {limit + 1} digits exceeds the limit of {limit} digits"
    for text in (f"1 + {long_token}", f"1 + {long_token}*q", f"1 + q^{long_token}", f"1 - 2*q^{long_token}"):
        assert _parse_error(text) == past_limit
    messages = {
        # an exponent over the q-degree cap
        "1 + q^1025": "exponent 1025 exceeds cap 1024 in '1 + q^1025'",
        "1 - 3*q^1025": "exponent 1025 exceeds cap 1024 in '1 - 3*q^1025'",
        "1 + 2^1025": "exponent 1025 exceeds cap 1024 in '1 + 2^1025'",
        # a "^" with no integer after it
        "1 + q^": "unexpected end of expression in '1 + q^'",
        "1 + 2*q^": "unexpected end of expression in '1 + 2*q^'",
        "1 + 2*q^x": "integer exponent expected, got 'x' in '1 + 2*q^x'",
        "1 + q^-": "unexpected end of expression in '1 + q^-'",
        # a term that goes on with "*", "/" or "^", or ends before it is whole
        "1 + 2*q^600*q^600": "q-degree 1200 exceeds cap 1024 in '1 + 2*q^600*q^600'",
        "1 - q^2 ^ 3": "trailing input ['^', '3'] in '1 - q^2 ^ 3'",
        "1 + 2^3^2": "trailing input ['^', '2'] in '1 + 2^3^2'",
        "1 + 2*": "unexpected end of expression in '1 + 2*'",
        "1 +": "unexpected end of expression in '1 +'",
        # a term followed by anything but "+", "-", ")" or the end
        "1 + 2 q": "trailing input ['q'] in '1 + 2 q'",
        "(1 + 2*q": "missing ')' in '(1 + 2*q'",
        "1 + 2*q)": "trailing input [')'] in '1 + 2*q)'",
    }
    for text, message in messages.items():
        assert _parse_error(text) == message
    assert parse_scalar("1 + 1/2*q^3 - 2*q^3*q + 2^3") == 9 + Fraction(1, 2) * qpow(3) - 2 * qpow(4)


def test_coefficient_over_the_bits_cap_is_read_by_the_general_path():
    # only a digit limit raised past 4932 digits lets one integer token exceed the cap
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        wide = "9" * 5000  # 16610 bits
        for text in (f"1 + {wide}*q^2", f"1 + {wide}", f"1 - {wide}*q"):
            assert _parse_error(text) == f"coefficient of 16610 bits exceeds cap {scalar._COEFF_BITS_CAP} in {text!r}"
        # a bare integer term is bounded only by the whole sum, as before
        assert parse_scalar(f"1 + {wide} - {wide}") == ONE
    finally:
        sys.set_int_max_str_digits(limit)


def test_poly_sums_keep_the_general_path():
    value = parse_poly("x + 2*q^3 - q")
    assert value == Poly([2 * qpow(3) - Q, ONE])
    assert [(_typed(c.num.coeffs), c.den.coeffs) for c in value.coeffs] == [
        ([(0, int), (-1, int), (0, int), (2, int)], (1,)),
        ([(1, int)], (1,)),
    ]


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


# -- powers ------------------------------------------------------------------

_MONOMIAL_COEFFS = (1, -1, 3, -3, Fraction(1, 2), Fraction(-1, 2))


def _power_by_products(x, n):
    result = ONE
    for _ in range(abs(n)):
        result = result * x
    return result if n >= 0 else ONE / result


def test_monomial_power_matches_repeated_multiplication():
    for c in _MONOMIAL_COEFFS:
        for e in (0, 1, 2, 5, 17, 40):
            for base in (c * qpow(e), c / qpow(e)):
                for n in range(-3, 13):
                    power = base**n
                    reference = _power_by_products(base, n)
                    assert power == reference, (c, e, n)
                    # same types too: an integral coefficient is an int, never Fraction(k, 1)
                    assert _typed(power.num.coeffs) == _typed(reference.num.coeffs), (c, e, n)
                    assert _typed(power.den.coeffs) == _typed(reference.den.coeffs), (c, e, n)
                    assert all(type(v) is int for v in power.den.coeffs)
                    product = P_ONE
                    for _ in range(abs(n)):
                        product = product * Poly([base])
                    assert Poly([base]) ** n == (product if n >= 0 else P_ONE / product), (c, e, n)
    assert _typed((as_scalar(Fraction(1, 2)) ** 0).num.coeffs) == [(1, int)]
    with pytest.raises(ValueError):
        QPoly([1, 1]) ** -1
    assert ZERO**0 == ONE and ZERO**5 == ZERO
    with pytest.raises(ZeroDivisionError):
        ZERO**-1


@settings(deadline=None)
@given(scalars(), st.integers(min_value=-3, max_value=6))
def test_power_matches_repeated_multiplication(a, n):
    if a.is_zero() and n < 0:
        return
    power, reference = a**n, _power_by_products(a, n)
    assert _typed(power.num.coeffs) == _typed(reference.num.coeffs)
    assert _typed(power.den.coeffs) == _typed(reference.den.coeffs)


def test_monomial_powers_make_no_products(monkeypatch):
    # a guard against q^k being built by repeated squaring again
    cap = scalar._Q_DEGREE_CAP
    half_q = Q / 2
    expected = [qpow(cap), Poly([qpow(cap)]), qpow(-cap), qpow(4000), 2**4000 * qpow(-4000)]
    products = []
    real = QPoly.__mul__

    def counting(a, b):
        products.append((a, b))
        return real(a, b)

    monkeypatch.setattr(QPoly, "__mul__", counting)
    powers = [parse_scalar(f"q^{cap}"), parse_poly(f"q^{cap}"), parse_scalar(f"q^-{cap}"), Q**4000, half_q**-4000]
    assert products == []
    assert powers == expected


# -- the QPoly product kernel -----------------------------------------------


@st.composite
def coefficient_lists(draw):
    """Coefficient lists long enough for either multiply path.

    Magnitudes run from single bits past 2^64, so every slot width is drawn;
    zeros fall inside and at both ends (the high end is trimmed by QPoly),
    and now and then one coefficient is a proper Fraction.  One list in six
    is a monomial c*q^e.
    """
    if draw(st.integers(0, 5)) == 0:
        # c*q^e, constants included; 1/2 * q^3 times 2 is the int polynomial q^3
        c = draw(st.sampled_from((1, -1, 2, 3, Fraction(1, 2), Fraction(-3, 2), 2**70)))
        return [0] * draw(st.integers(0, 30)) + [c] + [0] * draw(st.integers(0, 2))
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
    assert _typed((QPoly(a) * QPoly(b)).coeffs) == _typed(QPoly(schoolbook_product(a, b)).coeffs)


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
        # at length 8 the bound is 8 * m^2: m = 2^(4w - 2) puts it at 2^(8w - 1),
        # the first bound past a slot of w bytes, and m - 1 just inside it
        (8, 2**6, 3),
        (8, 2**10 - 1, 3),
        (8, 2**12, 4),
        (8, 2**14 - 1, 4),
        (8, 2**14, 5),
        (8, 2**18 - 1, 5),
        (8, 2**18, 6),
        (8, 2**22 - 1, 6),
        (8, 2**22, 7),
        (8, 2**25, 7),
        (8, 2**26 - 1, 7),
        (8, 2**26, 8),
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


@st.composite
def packed_slots(draw):
    """A slot width of 1 to 16 bytes and a canonical int tuple that fits it, extremes included."""
    width = draw(st.integers(1, 16))
    top = 2 ** (8 * width - 1) - 1
    value = st.one_of(st.integers(-top, top), st.sampled_from((top, -top, 0, 1, -1)))
    cs = draw(st.lists(value, min_size=1, max_size=40))
    while len(cs) > 1 and cs[-1] == 0:
        cs.pop()
    return width, tuple(cs)


@settings(deadline=None, max_examples=300)
@given(packed_slots())
@example((3, (2**23 - 1, -(2**23 - 1), 0, 1)))
@example((5, (-1,) * 7))
@example((7, (0, 2**55 - 1)))
@example((16, (-(2**127 - 1),)))
def test_digits_read_back_every_evaluation(case):
    width, cs = case
    assert scalar._digits(scalar._evaluate(cs, width), width) == cs


@pytest.mark.parametrize("width", [3, 5, 6, 7])
@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_kronecker_product_at_odd_slot_widths(width, data):
    # the largest magnitude m whose bound m^2 * length still fits the slot,
    # reached by at least one coefficient of each operand
    la, lb = data.draw(st.integers(5, 24)), data.draw(st.integers(5, 24))
    m = isqrt((2 ** (8 * width - 1) - 1) // min(la, lb))
    operand = st.lists(st.integers(-m, m), min_size=la, max_size=la)
    a = data.draw(operand)
    b = data.draw(st.lists(st.integers(-m, m), min_size=lb, max_size=lb))
    a[data.draw(st.integers(0, la - 1))] = data.draw(st.sampled_from((m, -m)))
    b[-1] = data.draw(st.sampled_from((m, -m)))
    assert scalar._slot_width(m * m * min(la, lb)) == width
    for x, y in ((a, b), ([m] * la, [m] * lb), ([-m] * la, [m] * lb)):
        assert scalar._kronecker_mul(tuple(x), tuple(y)) == QPoly(schoolbook_product(x, y)).coeffs


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
        ([0] * 80 + [1], [0] * 99 + [3], False),  # monomials
        (_sparse(100, least - 1, rng), _sparse(100, least - 1, rng), False),
        (_sparse(100, least, rng), _sparse(100, least, rng), True),
        (dense[:-1] + [Fraction(1, 3)], dense, False),
        (dense, [Fraction(1, 2)] + dense, False),
        # a monomial operand: the other one shifted and scaled
        ([0] * 10 + [Fraction(1, 2)], [0] * 3 + [2], False),
        ([0] * 10 + [-1], dense, False),
        ([0] * 3 + [Fraction(1, 2)], [2 * c for c in dense], False),
        (dense[:-1] + [Fraction(1, 3)], [0] * 7 + [3], False),
        # constants
        ([1], dense, False),
        ([Fraction(-1, 2)], dense, False),
        ([4], [Fraction(1, 4)], False),
        ([0], dense, False),
    ]
    for a, b, fires in cases:
        before = len(kronecker)
        for x, y in ((a, b), (b, a)):
            assert _typed((QPoly(x) * QPoly(y)).coeffs) == _typed(QPoly(schoolbook_product(x, y)).coeffs), (x, y)
        assert (len(kronecker) > before) == fires, (a, b)


# -- the matrix product -------------------------------------------------------

_SLOT_EDGES = [2**7 - 1, 2**7, 2**15 - 1, 2**31 - 1, 2**63 - 1, 2**64 + 3]


@st.composite
def matrix_entries(draw):
    """Scalars for the fold: int polynomials with coefficients at every slot
    boundary, zeros and constants, Fraction coefficients and rational
    functions."""
    kind = draw(st.integers(0, 5))
    if kind == 0:
        return ZERO
    if kind == 1:
        return as_scalar(draw(st.one_of(st.integers(-9, 9), st.sampled_from(_SLOT_EDGES))))
    coefficient = st.one_of(st.integers(-9, 9), st.sampled_from(_SLOT_EDGES), st.sampled_from(_SLOT_EDGES).map(lambda c: -c))
    value = Scalar(QPoly(draw(st.lists(coefficient, min_size=1, max_size=8))))
    if kind == 4 and draw(st.integers(0, 3)) == 0:
        return value + Fraction(1, draw(st.integers(2, 5)))
    if kind == 5 and draw(st.integers(0, 3)) == 0:
        return value / (Q + draw(st.integers(1, 3)))
    return value


@st.composite
def ragged_matrices(draw):
    b_rows = draw(st.lists(st.lists(matrix_entries(), max_size=6), max_size=6))
    a_rows = draw(st.lists(st.lists(matrix_entries(), max_size=len(b_rows)), max_size=6))
    return a_rows, b_rows


def _scalar_fold(a_rows, b_rows):
    out = []
    for row in a_rows:
        acc = [ZERO] * max([len(b_rows[k]) for k in range(len(row))] + [0])
        for k, a in enumerate(row):
            for j, b in enumerate(b_rows[k]):
                acc[j] = acc[j] + a * b
        out.append(tuple(acc))
    return out


def _typed_rows(rows):
    return [[(_typed(s.num.coeffs), _typed(s.den.coeffs)) for s in row] for row in rows]


@settings(deadline=None, max_examples=300)
@given(ragged_matrices())
def test_matrix_product_matches_scalar_fold(matrices):
    a_rows, b_rows = matrices
    assert _typed_rows(scalar.matrix_product(a_rows, b_rows)) == _typed_rows(_scalar_fold(a_rows, b_rows))


def test_matrix_product_depth_zero():
    assert scalar.matrix_product([[ONE]], [[ONE]]) == [(ONE,)]
    assert scalar.matrix_product([[]], []) == [()]
    assert scalar.matrix_product([], []) == []


@pytest.mark.parametrize(
    "terms, magnitude, length, width",
    [
        (127, 1, 1, 1),  # every coefficient of the sum is the bound 127, a signed byte's largest
        (128, 1, 1, 2),
        (2, 127, 1, 2),  # 2 * 127^2 = 32258, just under 2^15
        (3, 127, 1, 3),
        (2, 2**11 - 1, 1, 3),  # 2 * (2^11 - 1)^2, just under 2^23
        (2, 2**11, 1, 4),
        (2, 2**15 - 1, 1, 4),  # just under 2^31
        (2, 2**15, 1, 5),
        (2, 2**19 - 1, 1, 5),
        (2, 2**19, 1, 6),
        (2, 2**23 - 1, 1, 6),
        (2, 2**23, 1, 7),
        (2, 2**27 - 1, 1, 7),
        (2, 2**27, 1, 8),
        (1, 2**31 - 1, 1, 8),
        (2, 2**31, 1, 9),
        (3, 2**31 - 1, 5, 9),
        (2, 2**64 + 3, 3, 17),
    ],
)
def test_matrix_product_slot_widths(terms, magnitude, length, width):
    # A is one row of `terms` entries and B `terms` rows of one entry, each
    # the polynomial with `length` coefficients +-magnitude, so the central
    # coefficient of the one sum reaches the bound that picks the width; the
    # product's coefficients round-trip through a signed slot of that width
    entry = Scalar(QPoly([magnitude] * length))
    assert scalar._slot_width(terms * magnitude**2 * length) == width
    for sign in (1, -1):
        a_rows = [[entry] * terms]
        b_rows = [[entry * sign]] * terms
        product = scalar.matrix_product(a_rows, b_rows)
        assert product == _scalar_fold(a_rows, b_rows)
        cs = product[0][0].num.coeffs
        assert max(cs, key=abs) == sign * terms * magnitude**2 * length
        assert scalar._digits(scalar._evaluate(cs, width), width) == cs


def test_matrix_product_folds_any_denominator_or_fraction():
    dense = Scalar(QPoly(range(1, 9)))
    assert scalar.matrix_product([[dense, dense]], [[dense], [dense]]) == [(dense * dense + dense * dense,)]
    for odd in (ONE / (ONE + Q), as_scalar(Fraction(1, 2)) * Q):
        for a_rows, b_rows in (([[dense, odd]], [[dense], [dense]]), ([[dense, dense]], [[dense], [odd, dense]])):
            assert scalar.matrix_product(a_rows, b_rows) == _scalar_fold(a_rows, b_rows)
