"""Exact arithmetic in Q and in the rational-function field Q(q).

Every quantity in this package -- table entries, box weights, operator
eigenvalues, series coefficients -- is a :class:`Scalar`: a quotient of two
polynomials in the formal parameter ``q`` with rational coefficients, kept
in canonical form (numerator and denominator coprime, denominator monic).
Equality of Scalars is therefore plain structural equality, which is what
makes exact golden-value assertions possible.

Representation:

  Rational  -- ``fractions.Fraction`` (arbitrary precision, auto-reduced).
  QPoly     -- dense ascending coefficient tuple; entry i is the
               coefficient of q^i, an int or Fraction.  The trailing entry
               is nonzero except for the zero polynomial, stored as (0,).
  Scalar    -- QPoly pair num/den with gcd(num, den) = 1 and den monic.

Most Scalars in the suites are rational constants: a one-coefficient
numerator over the unit denominator.  ``Scalar.__add__`` and ``__mul__``
combine two such operands directly on their coefficients (the degree-0
path), skipping the QPoly arithmetic; the result is the same canonical
tuple the general path builds.

QPoly products take one of two paths, chosen from the operands alone.
Kronecker substitution packs each operand into one Python int at a fixed
slot width, multiplies the two ints once and unpacks the signed slots; it
runs when every coefficient is an int, the shorter operand has more than 4
coefficients and nnz(a) * nnz(b) >= C * (len(a) + len(b)), where nnz counts
nonzero coefficients and C is ``_KRONECKER_DENSITY``.  Every other product,
including any with a Fraction coefficient and sparse ones such as q^k times
q^j, is the schoolbook double loop over nonzero coefficients.  Both give the
same canonical tuple.

Printing: integers print bare ("5"), polynomials as canonical
ascending-power strings ("1 + q - 2*q^3"), quotients as "num / den" with
parentheses around any part containing spaces.  :func:`parse_scalar` reads
the same grammar back (signed rational coefficients, q^k powers, the four
arithmetic operators, parentheses), so ``parse_scalar(str(s)) == s``.
"""

from __future__ import annotations

import re
import sys
from array import array
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Union

Rational = Fraction

Coeff = Union[int, Fraction]


class PoleError(ZeroDivisionError):
    """Evaluation of a Scalar at a zero of its denominator."""


class ParseError(ValueError):
    """Malformed scalar/polynomial expression text."""


def _as_coeff(value: object) -> Coeff:
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    raise TypeError(f"rational coefficient expected, got {type(value).__name__}")


class QPoly:
    """Polynomial in q over the rationals (dense, ascending powers)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Coeff]):
        cs = [_as_coeff(c) for c in coeffs]
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        if not cs:
            cs = [0]
        self.coeffs = tuple(cs)

    @classmethod
    def _raw(cls, coeffs: tuple) -> "QPoly":
        # Trusted constructor: coefficients already canonical.
        p = object.__new__(cls)
        p.coeffs = coeffs
        return p

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0] == 0

    def is_one(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0] == 1

    def lead(self) -> Coeff:
        return self.coeffs[-1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __neg__(self) -> "QPoly":
        return QPoly._raw(tuple(-c for c in self.coeffs))

    def __add__(self, other: "QPoly") -> "QPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, bi in enumerate(b):
            if bi:
                out[i] = out[i] + bi
        while len(out) > 1 and out[-1] == 0:
            out.pop()
        return QPoly._raw(tuple(out))

    def __sub__(self, other: "QPoly") -> "QPoly":
        return self + (-other)

    def __mul__(self, other: "QPoly") -> "QPoly":
        a, b = self.coeffs, other.coeffs
        if self.is_zero() or other.is_zero():
            return QP_ZERO
        if len(a) > len(b):
            a, b = b, a
        if (
            len(a) > 4
            and (len(a) - a.count(0)) * (len(b) - b.count(0)) >= _KRONECKER_DENSITY * (len(a) + len(b))
            and _INT_ONLY.issuperset(map(type, a))
            and _INT_ONLY.issuperset(map(type, b))
        ):
            return QPoly._raw(_kronecker_mul(a, b))
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        out[i + j] += ai * bj
        return QPoly._raw(tuple(out))

    def scale(self, c: Coeff) -> "QPoly":
        if c == 0:
            return QP_ZERO
        return QPoly._raw(tuple(_as_coeff(x * c) if x else 0 for x in self.coeffs))

    def __divmod__(self, other: "QPoly") -> tuple["QPoly", "QPoly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        dn = other.degree()
        dd = self.degree()
        if dd < dn and self.is_zero():
            return QP_ZERO, QP_ZERO
        if dd < dn:
            return QP_ZERO, self
        num = list(self.coeffs)
        inv_lead = Fraction(1) / Fraction(other.lead())
        quo = [0] * (dd - dn + 1)
        for i in range(dd - dn, -1, -1):
            c = num[i + dn]
            if c:
                factor = _as_coeff(c * inv_lead)
                quo[i] = factor
                for j, oc in enumerate(other.coeffs):
                    if oc:
                        num[i + j] -= factor * oc
        return QPoly(quo), QPoly(num[:dn] or [0])

    def monic(self) -> "QPoly":
        lc = self.lead()
        if lc == 1:
            return self
        return self.scale(Fraction(1) / Fraction(lc))

    @staticmethod
    def gcd(a: "QPoly", b: "QPoly") -> "QPoly":
        while not b.is_zero():
            _, r = divmod(a, b)
            a, b = b, r
        if a.is_zero():
            return QP_ZERO
        return a.monic()

    def eval(self, v: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * v + c
        return acc

    def __repr__(self) -> str:
        return f"QPoly({list(self.coeffs)!r})"


# Kronecker substitution pays off once the schoolbook coefficient products
# outnumber the packed slots by this factor.  Replaying the products of the
# three benchmark workloads through both paths (Python 3.11, 2 vCPUs), the
# total was flat for factors 1 to 4 and rose above 4 (gate: +0.12 s at 8);
# below 4, dense operands of length 5 to 8 lose to schoolbook's smaller fixed
# cost.  Sparse operands, such as the q^k monomials that parse_scalar
# squares, stay on schoolbook.
_KRONECKER_DENSITY = 4
_INT_ONLY = frozenset((int,))
# Signed array formats by item size in bytes: the slot widths packed at C speed.
_SLOT_FORMATS = {array(code).itemsize: code for code in "bhiq"}
_SWAP = sys.byteorder == "big"


def _pack(cs: tuple, width: int) -> bytes:
    """Little-endian two's-complement bytes of ``cs``, ``width`` bytes a slot."""
    fmt = _SLOT_FORMATS.get(width)
    if fmt is None:
        return b"".join(c.to_bytes(width, "little", signed=True) for c in cs)
    slots = array(fmt, cs)
    if _SWAP:
        slots.byteswap()
    return slots.tobytes()


def _unpack(data: bytes, width: int) -> tuple:
    """Inverse of :func:`_pack`."""
    fmt = _SLOT_FORMATS.get(width)
    if fmt is None:
        return tuple(int.from_bytes(data[i:i + width], "little", signed=True) for i in range(0, len(data), width))
    slots = array(fmt, data)
    if _SWAP:
        slots.byteswap()
    return tuple(slots.tolist())


def _kronecker_mul(a: tuple, b: tuple) -> tuple:
    """Product of two nonzero int coefficient tuples by Kronecker substitution.

    Each operand is evaluated at q = 2^k as one Python int, the two ints are
    multiplied once, and the product's base-2^k digits are read back.  With
    B = max|a| * max|b| * min(len(a), len(b)) bounding every product
    coefficient, k > bit_length(B) leaves a sign bit in every slot, so the
    digits never carry into each other.  Signed digits are handled by a bias:
    adding h = 2^(k-1) to every slot flips its top bit, so the biased packing
    is the two's-complement packing XOR the mask M_n = h * (2^(kn) - 1) /
    (2^k - 1) of top bits, and the plain value is that minus M_n.  Read
    back the same way: the product plus M_n has every slot in [0, 2^k), and
    XOR with M_n turns the slots back into two's complement.
    """
    bound = max(max(a), -min(a)) * max(max(b), -min(b)) * min(len(a), len(b))
    width = (bound.bit_length() + 8) // 8
    if width <= 8:
        width = 1 << (width - 1).bit_length()
    k = 8 * width
    top = 1 << (k - 1)
    spread = (1 << k) - 1

    def top_bits(n: int) -> int:
        return top * ((1 << (k * n)) - 1) // spread

    def value(cs: tuple) -> int:
        mask = top_bits(len(cs))
        return (int.from_bytes(_pack(cs, width), "little") ^ mask) - mask

    n = len(a) + len(b) - 1
    mask = top_bits(n)
    return _unpack(((value(a) * value(b) + mask) ^ mask).to_bytes(n * width, "little"), width)


QP_ZERO = QPoly._raw((0,))
QP_ONE = QPoly._raw((1,))
_UNIT = QP_ONE.coeffs
QP_Q = QPoly._raw((0, 1))


def _canonical(num: QPoly, den: QPoly) -> tuple[QPoly, QPoly]:
    if den.is_zero():
        raise ZeroDivisionError("zero denominator in Q(q)")
    if num.is_zero():
        return QP_ZERO, QP_ONE
    if not den.is_one():
        g = QPoly.gcd(num, den)
        if not g.is_one():
            num, _ = divmod(num, g)
            den, _ = divmod(den, g)
        lc = den.lead()
        if lc != 1:
            inv = Fraction(1) / Fraction(lc)
            num = num.scale(inv)
            den = den.scale(inv)
    return num, den


class Scalar:
    """Element of Q(q), the field every table in this package lives over."""

    __slots__ = ("num", "den")

    def __init__(self, num: QPoly | Coeff, den: QPoly | Coeff | None = None):
        if not isinstance(num, QPoly):
            num = QPoly((num,))
        if den is None:
            den = QP_ONE
        elif not isinstance(den, QPoly):
            den = QPoly((den,))
        self.num, self.den = _canonical(num, den)

    @classmethod
    def _raw(cls, num: QPoly, den: QPoly) -> "Scalar":
        s = object.__new__(cls)
        s.num = num
        s.den = den
        return s

    # -- predicates and conversions --

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.num.is_one() and self.den.is_one()

    def is_rational(self) -> bool:
        return self.den.is_one() and self.num.degree() == 0

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"not a rational constant: {self}")
        return Fraction(self.num.coeffs[0])

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- field operations --

    def __add__(self, other: object) -> "Scalar":
        if other.__class__ is not Scalar:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        if self.den.coeffs == _UNIT == other.den.coeffs:
            a, b = self.num.coeffs, other.num.coeffs
            if len(a) == 1 and len(b) == 1:
                # as in QPoly.__add__, a zero addend leaves the coefficient untouched
                return Scalar._raw(QPoly._raw((a[0] + b[0],)) if b[0] else self.num, QP_ONE)
            return Scalar._raw(self.num + other.num, QP_ONE)
        num = self.num * other.den + other.num * self.den
        return Scalar(num, self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        return Scalar._raw(-self.num, self.den)

    def __sub__(self, other: object) -> "Scalar":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: object) -> "Scalar":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other: object) -> "Scalar":
        if other.__class__ is not Scalar:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        if self.den.coeffs == _UNIT == other.den.coeffs:
            a, b = self.num.coeffs, other.num.coeffs
            if len(a) == 1 and len(b) == 1:
                return Scalar._raw(QPoly._raw((a[0] * b[0],)), QP_ONE) if a[0] and b[0] else ZERO
            # QPoly.__mul__ returns the zero polynomial for a zero operand
            return Scalar._raw(self.num * other.num, QP_ONE)
        if self.is_zero() or other.is_zero():
            return ZERO
        return Scalar(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "Scalar":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero in Q(q)")
        return Scalar(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other: object) -> "Scalar":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, n: int) -> "Scalar":
        if not isinstance(n, int):
            raise TypeError("scalar exponent must be an integer")
        if n < 0:
            return (ONE / self) ** (-n)
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = _coerce(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        if self.is_rational():
            # hash(n) == hash(Fraction(n)), so no Fraction is built here
            return hash(self.num.coeffs[0])
        return hash((self.num.coeffs, self.den.coeffs))

    # -- specialization --

    def eval_q(self, v: Fraction | int) -> Fraction:
        """Exact value at q = v; raises PoleError if the denominator vanishes."""
        v = Fraction(v)
        dv = self.den.eval(v)
        if dv == 0:
            raise PoleError(f"pole at q = {v}: denominator {format_qpoly(self.den)} vanishes")
        return self.num.eval(v) / dv

    # -- printing --

    def __str__(self) -> str:
        if self.den.is_one():
            return format_qpoly(self.num)
        return f"{_wrap(format_qpoly(self.num))} / {_wrap(format_qpoly(self.den))}"

    def __repr__(self) -> str:
        return f"Scalar({str(self)!r})"


def _coerce(value: object) -> Scalar | None:
    if isinstance(value, Scalar):
        return value
    if isinstance(value, int) or isinstance(value, Fraction):
        c = _as_coeff(value)
        return ZERO if c == 0 else Scalar._raw(QPoly._raw((c,)), QP_ONE)
    return None


ZERO = Scalar._raw(QP_ZERO, QP_ONE)
ONE = Scalar._raw(QP_ONE, QP_ONE)
Q = Scalar._raw(QP_Q, QP_ONE)


def as_scalar(value: Scalar | int | Fraction | str) -> Scalar:
    """Coerce an int, Fraction, or expression string into a Scalar."""
    if isinstance(value, str):
        return parse_scalar(value)
    coerced = _coerce(value)
    if coerced is None:
        raise TypeError(f"cannot interpret {type(value).__name__} as a Scalar")
    return coerced


def qpow(k: int) -> Scalar:
    """The monomial q^k."""
    if k < 0:
        return ONE / qpow(-k)
    return Scalar._raw(QPoly._raw((0,) * k + (1,)), QP_ONE)


@lru_cache(maxsize=None)
def q_integer(n: int) -> Scalar:
    """The q-deformed integer 1 + q + ... + q^(n-1); 0 for n = 0."""
    if n < 0:
        raise ValueError("q_integer expects n >= 0")
    if n == 0:
        return ZERO
    return Scalar._raw(QPoly._raw((1,) * n), QP_ONE)


@lru_cache(maxsize=None)
def q_factorial(n: int) -> Scalar:
    """Product of the q-integers 1 through n; equals 1 for n = 0."""
    if n < 0:
        raise ValueError("q_factorial expects n >= 0")
    if n == 0:
        return ONE
    return q_factorial(n - 1) * q_integer(n)


# -- text form -------------------------------------------------------------

def _term(c: Coeff, k: int) -> str:
    if k == 0:
        return str(c)
    power = "q" if k == 1 else f"q^{k}"
    if c == 1:
        return power
    if c == -1:
        return "-" + power
    return f"{c}*{power}"


def format_qpoly(p: QPoly) -> str:
    """Canonical ascending-power string form of a q-polynomial."""
    terms = [(c, k) for k, c in enumerate(p.coeffs) if c != 0]
    if not terms:
        return "0"
    first_c, first_k = terms[0]
    out = [_term(first_c, first_k)]
    for c, k in terms[1:]:
        if c < 0:
            out.append(" - " + _term(-c, k))
        else:
            out.append(" + " + _term(c, k))
    return "".join(out)


def _wrap(s: str) -> str:
    return f"({s})" if " " in s else s


_TOKEN_RE = re.compile(r"\d+|[A-Za-z]+|\S")


def tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    for m in _TOKEN_RE.finditer(text):
        if text[pos:m.start()].strip():
            raise ParseError(f"unexpected character in {text!r} at position {pos}")
        tokens.append(m.group())
        pos = m.end()
    return tokens


def parse_expression(text: str, atoms: dict[str, object], from_int: Callable[[int], object]):
    """Recursive-descent evaluator for the scalar/polynomial expression grammar.

    ``atoms`` maps symbol names (e.g. "q", "x") to algebra values; the value
    type must support +, -, *, /, unary minus and integer **.  Nesting of
    parentheses or unary minus deeper than the recursion limit allows is a
    :class:`ParseError`, like any other bad input.
    """
    tokens = tokenize(text)
    pos = 0

    def peek() -> str | None:
        return tokens[pos] if pos < len(tokens) else None

    def take() -> str:
        nonlocal pos
        if pos >= len(tokens):
            raise ParseError(f"unexpected end of expression in {text!r}")
        tok = tokens[pos]
        pos += 1
        return tok

    def parse_sum():
        value = parse_product()
        while peek() in ("+", "-"):
            op = take()
            rhs = parse_product()
            value = value + rhs if op == "+" else value - rhs
        return value

    def parse_product():
        value = parse_factor()
        while peek() in ("*", "/"):
            op = take()
            rhs = parse_factor()
            value = value * rhs if op == "*" else value / rhs
        return value

    def parse_factor():
        if peek() == "-":
            take()
            return -parse_factor()
        return parse_power()

    def parse_power():
        base = parse_atom()
        if peek() == "^":
            take()
            sign = 1
            if peek() == "-":
                take()
                sign = -1
            tok = take()
            if not tok.isdigit():
                raise ParseError(f"integer exponent expected, got {tok!r} in {text!r}")
            return base ** (sign * int(tok))
        return base

    def parse_atom():
        tok = take()
        if tok.isdigit():
            return from_int(int(tok))
        if tok in atoms:
            return atoms[tok]
        if tok == "(":
            value = parse_sum()
            if peek() != ")":
                raise ParseError(f"missing ')' in {text!r}")
            take()
            return value
        raise ParseError(f"unexpected token {tok!r} in {text!r}")

    if not tokens:
        raise ParseError("empty expression")
    try:
        value = parse_sum()
    except RecursionError:
        raise ParseError(f"expression nested too deeply to parse ({len(text)} characters)") from None
    if pos != len(tokens):
        raise ParseError(f"trailing input {tokens[pos:]!r} in {text!r}")
    return value


def parse_scalar(text: str) -> Scalar:
    """Parse the scalar text grammar back into a canonical Scalar."""
    value = parse_expression(text, {"q": Q}, lambda n: as_scalar(n))
    assert isinstance(value, Scalar)
    return value
