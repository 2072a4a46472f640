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

``Scalar.__add__`` and ``__mul__`` of two operands over the unit
denominator combine the numerators with QPoly arithmetic alone, with no
gcd: the result is already canonical.  So does ``Scalar.__pow__``, which
raises the numerator and the denominator separately: a power of a
monomial c*q^k is c^n*q^(kn) in closed form, with no products, and any
other QPoly is raised by repeated squaring.

QPoly products take one of three paths, chosen from the operands alone;
nnz counts an operand's nonzero coefficients.  A monomial operand c*q^e
(nnz = 1, constants included) makes the product the other operand scaled
by c and shifted up by e, with no coefficient products when c = 1 and one
when both operands are monomials.  Kronecker substitution evaluates each
operand exactly at q = 2^(8w), one Python int each, for a slot of w bytes
wide enough for every product coefficient and its sign; it multiplies the
two ints once and reads the balanced base-2^(8w) digits back.  It runs
when every coefficient is an int, the shorter operand has more than 4
coefficients and nnz(a) * nnz(b) >= C * (len(a) + len(b)), where C is
``_KRONECKER_DENSITY``.  Every other product, including any with a
Fraction coefficient, is the schoolbook double loop over nonzero
coefficients.  All three give the same canonical tuple.

:func:`matrix_product` multiplies two matrices of Scalars by folding
Scalar products entry by entry; the triad connection check reaches it
only for a spec off its packed path or for a row that fails there.
The recurrences of ``triad`` and ``konvalina`` each run over a ring:
values that multiply a cell from the right with ``*``, and a read-back of
a cell as a canonical Scalar, with the ints 0 and 1 as every ring's zero
and one.  :func:`_ring_for` chooses it, by one rule for both modules:
native ints and Fractions when every value is constant in q; packed
factors when every value is a polynomial with int coefficients and the
slot is at most ``_MAX_SLOT`` (8) bytes, past which big-int arithmetic
loses to Scalar arithmetic; else the Scalars themselves.  A packed value
q^e * p is a :class:`_Packed` factor, p at q = +2^(8w) or at q = -2^(8w)
(where the coefficient of q^m takes the sign (-1)^m) and the shift 8we,
so a monomial c*q^e costs a product by c and a shift.
:func:`_packed_width` sizes the slot from the same computation run over
the l1 norms of the values' coefficients.  Every slot is exactly as many
bytes as its bound needs: 1, 2, 4 and 8 bytes are array items, 3, 5, 6
and 7 bytes are copied out of 8-byte items with strided slices, and wider
slots pack each coefficient with ``int.to_bytes``.

Printing: integers print bare ("5"), polynomials as canonical
ascending-power strings ("1 + q - 2*q^3"), quotients as "num / den" with
parentheses around any part containing spaces.  :func:`parse_scalar` reads
the same grammar back (signed rational coefficients, q^k powers, the four
arithmetic operators, parentheses), so ``parse_scalar(str(s)) == s``.  In a
sum of Scalars, each term after the first that is printed as c, q, q^k,
c*q or c*q^k is read straight off the tokens: its signed coefficient goes
into one coefficient list at index k, with no Scalar, power or product
built.  The sum's other terms over the unit denominator are added into the
same list in place, so parsing a printed polynomial takes a bounded number
of Python steps per term.  The parser refuses, with :class:`ParseError`,
any exponent or value whose q-degree exceeds ``_Q_DEGREE_CAP`` or whose
coefficients are wider than ``_COEFF_BITS_CAP`` bits, so no text builds an
unbounded QPoly.
"""

from __future__ import annotations

import re
import sys
from array import array
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from operator import add, mul, sub
from typing import Callable, Iterable, Sequence, Union

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
                c = out[i] + bi
                # two Fractions can sum to an integer, which is kept as an int
                out[i] = c.numerator if c.__class__ is Fraction and c.denominator == 1 else c
        while len(out) > 1 and out[-1] == 0:
            out.pop()
        return QPoly._raw(tuple(out))

    def __sub__(self, other: "QPoly") -> "QPoly":
        return self + (-other)

    def __mul__(self, other: "QPoly") -> "QPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) > len(b):
            a, b = b, a
        na, nb = len(a) - a.count(0), len(b) - b.count(0)
        if not na or not nb:
            return QP_ZERO
        if na == 1 or nb == 1:
            if na != 1:
                a, b, nb = b, a, na
            # a is c*q^e: the product is b scaled by c and shifted up by e
            if nb == 1:
                return QPoly._raw((0,) * (len(a) + len(b) - 2) + (_as_coeff(a[-1] * b[-1]),))
            return QPoly._raw((0,) * (len(a) - 1) + _scaled(b, a[-1]))
        if (
            len(a) > 4
            and na * nb >= _KRONECKER_DENSITY * (len(a) + len(b))
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
        # A Fraction times an int or a Fraction can be an integer.  Any
        # Fraction makes the sum a Fraction, which is cheaper to test than
        # the type of every coefficient.
        if sum(out).__class__ is not int:
            out = [_as_coeff(c) for c in out]
        return QPoly._raw(tuple(out))

    def __pow__(self, n: int) -> "QPoly":
        """The n-th power, n >= 0: c*q^k gives c^n*q^(kn) with no products."""
        if n < 0:
            raise ValueError("negative power of a q-polynomial")
        cs = self.coeffs
        if cs.count(0) == len(cs) - 1:
            return QPoly._raw((0,) * ((len(cs) - 1) * n) + (_as_coeff(cs[-1] ** n),))
        result, base = QP_ONE, self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def scale(self, c: Coeff) -> "QPoly":
        if c == 0:
            return QP_ZERO
        return QPoly._raw(_scaled(self.coeffs, c))

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


def _scaled(cs: tuple, c: Coeff) -> tuple:
    """The coefficients cs times a nonzero c, an integral Fraction kept as an int."""
    if c == 1:
        return cs
    out = tuple(map(mul, cs, repeat(c, len(cs))))
    # as in QPoly.__mul__: the sum is an int exactly when every entry is
    return out if sum(out).__class__ is int else tuple(map(_as_coeff, out))


# Kronecker substitution pays off once the schoolbook coefficient products
# outnumber the packed slots by this factor.  Replaying the products of the
# three benchmark workloads through both paths (Python 3.11, 2 vCPUs), the
# total was flat for factors 1 to 4 and rose above 4 (gate: +0.12 s at 8);
# below 4, dense operands of length 5 to 8 lose to schoolbook's smaller fixed
# cost.  Sparse operands with two or more nonzero coefficients stay on
# schoolbook; a monomial operand never reaches this test.
_KRONECKER_DENSITY = 4
_INT_ONLY = frozenset((int,))
# Signed array formats by item size in bytes: the slot widths packed at C speed.
_SLOT_FORMATS = {array(code).itemsize: code for code in "bhiq"}
_SWAP = sys.byteorder == "big"
# The top byte of a two's-complement slot mapped to the byte that extends its sign.
_SIGN_FILL = bytes(0xFF if byte & 0x80 else 0 for byte in range(256))


def _pack(cs: tuple, width: int) -> bytes:
    """Little-endian two's-complement bytes of ``cs``, ``width`` bytes a slot.

    A slot of 1, 2, 4 or 8 bytes is an array item.  A slot of 3, 5, 6 or 7
    bytes is packed as an 8-byte item first, and its low ``width`` bytes are
    copied out with one strided slice per byte.  A wider slot packs each
    coefficient with its own ``int.to_bytes``.
    """
    if width > 8:
        return b"".join(c.to_bytes(width, "little", signed=True) for c in cs)
    fmt = _SLOT_FORMATS.get(width)
    slots = array(fmt or "q", cs)
    if _SWAP:
        slots.byteswap()
    data = slots.tobytes()
    if fmt is not None:
        return data
    out = bytearray(len(cs) * width)
    for byte in range(width):
        out[byte::width] = data[byte::8]
    return out


def _unpack(data: bytes, width: int) -> tuple:
    """Inverse of :func:`_pack`; a 3-, 5-, 6- or 7-byte slot is sign-extended from its top byte."""
    if width > 8:
        return tuple(int.from_bytes(data[i:i + width], "little", signed=True) for i in range(0, len(data), width))
    fmt = _SLOT_FORMATS.get(width)
    if fmt is None:
        wide = bytearray(len(data) // width * 8)
        for byte in range(width):
            wide[byte::8] = data[byte::width]
        fill = data[width - 1::width].translate(_SIGN_FILL)
        for byte in range(width, 8):
            wide[byte::8] = fill
        data, fmt = wide, "q"
    slots = array(fmt, data)
    if _SWAP:
        slots.byteswap()
    return tuple(slots.tolist())


# Signed slots.  A slot of ``width`` bytes holds a coefficient c with
# |c| < 2^(k-1), k = 8 * width, so each slot keeps a sign bit and the digits
# of a sum or product that stays inside the bound never carry into each
# other.  A slot is exactly as many bytes as its bound needs: the packed
# ints, and every sum and product of them, are no longer than they must
# be.  Adding h = 2^(k-1) to every slot flips its top bit, so the value at
# q = 2^k is the two's-complement packing XOR the mask M of top bits, minus
# M; read back, the value plus M has every slot in [0, 2^k), and XOR with M
# turns the slots back into two's complement.


def _slot_width(bound: int) -> int:
    """Bytes a slot needs for coefficients of magnitude at most ``bound``, sign bit included."""
    return (bound.bit_length() + 8) // 8


def _top_bits(n: int, width: int) -> int:
    """The mask M of the top bit of each of n slots of ``width`` bytes."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * n, "little")


def _evaluate(cs: tuple, width: int) -> int:
    """The int coefficients cs evaluated exactly at q = 2^(8 * width)."""
    mask = _top_bits(len(cs), width)
    return (int.from_bytes(_pack(cs, width), "little") ^ mask) - mask


def _digits(value: int, width: int) -> tuple:
    """The canonical coefficient tuple whose :func:`_evaluate` is ``value``.

    A nonzero top digit c_d puts |value| in (2^(kd-1), 2^(k(d+1)-1)), so the
    bit length of |value| gives the digit count d + 1 with no trailing zero.
    """
    n = abs(value).bit_length() // (8 * width) + 1
    mask = _top_bits(n, width)
    return _unpack(((value + mask) ^ mask).to_bytes(n * width, "little"), width)


def _magnitude(cs: tuple) -> int:
    return max(max(cs), -min(cs))


def _kronecker_mul(a: tuple, b: tuple) -> tuple:
    """Product of two nonzero int coefficient tuples by Kronecker substitution.

    B = max|a| * max|b| * min(len(a), len(b)) bounds every product
    coefficient, so both operands are evaluated at q = 2^k with a slot wide
    enough for B, the two ints are multiplied once, and the digits of the
    product are read back.
    """
    width = _slot_width(_magnitude(a) * _magnitude(b) * min(len(a), len(b)))
    return _digits(_evaluate(a, width) * _evaluate(b, width), width)


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

    def __init__(self, num: QPoly, den: QPoly = QP_ONE):
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

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- field operations --

    def __add__(self, other: object) -> "Scalar":
        if other.__class__ is not Scalar:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        if self.den.coeffs == _UNIT == other.den.coeffs:
            return Scalar._raw(self.num + other.num, QP_ONE)
        # x + 0 is x; without this, a zero costs a full gcd in _canonical
        if other.is_zero():
            return self
        if self.is_zero():
            return other
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
        num, den = self.num, self.den
        if n < 0:
            if num.is_zero():
                raise ZeroDivisionError("division by zero in Q(q)")
            # den / num, scaled so that the new denominator is monic
            inv = Fraction(1, num.lead())
            num, den, n = den.scale(inv), num.scale(inv), -n
        # num and den are coprime and den is monic, so their powers are too
        return Scalar._raw(num**n, den**n)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is Scalar:
            return self.num.coeffs == other.num.coeffs and self.den.coeffs == other.den.coeffs
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
    # the two commonest arguments, a Scalar and an int, skip the type tests
    if value.__class__ is Scalar:
        return value
    if value.__class__ is int:
        return Scalar._raw(QPoly._raw((value,)), QP_ONE) if value else ZERO
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


# -- matrix products ---------------------------------------------------------

def matrix_product(a_rows: list, b_rows: list) -> list[tuple]:
    """The rows of A * B for ragged matrices of Scalars, missing entries zero.

    Row n of the product is sum_k A[n][k] * B[k] over k < len(A[n]), as long
    as the longest of those rows of B, folded entry by entry in Scalar
    arithmetic.
    """
    out = []
    for row in a_rows:
        acc = [ZERO] * max(map(len, b_rows[: len(row)]), default=0)
        for a, b_row in zip(row, b_rows):
            if a:
                for j, b in enumerate(b_row):
                    acc[j] = acc[j] + a * b
        out.append(tuple(acc))
    return out


def _int_polynomial(s: Scalar) -> bool:
    return s.den.coeffs == _UNIT and _INT_ONLY.issuperset(map(type, s.num.coeffs))


def _packed_scalar(value: int, width: int) -> Scalar:
    return Scalar._raw(QPoly._raw(_digits(value, width)), QP_ONE) if value else ZERO


def _l1_norms(sequences: Sequence[Sequence[Scalar]]) -> list[list[int]] | None:
    """The l1 norm of each scalar's coefficients, one list per sequence.

    None unless every scalar is a polynomial with int coefficients.
    """
    if not all(_int_polynomial(s) for seq in sequences for s in seq):
        return None
    return [[sum(map(abs, s.num.coeffs)) for s in seq] for seq in sequences]


class _Packed:
    """A packed factor q^e * p: ``p`` at q = +-2^(8w) and ``shift`` = 8we; ``value * factor`` is value * p << shift."""

    __slots__ = ("p", "shift")

    def __init__(self, p: int, shift: int):
        self.p, self.shift = p, shift

    def __rmul__(self, value: int) -> int:
        return value * self.p << self.shift


def _packed_factors(sequences: Sequence[Sequence[Scalar]], width: int, sign: int = 1) -> list[list[_Packed]]:
    """Each int q-polynomial of each sequence as a :class:`_Packed` factor at q = sign * 2^(8 * width).

    A scalar q^e * p, with p's constant coefficient nonzero, becomes
    ``_Packed(p(2^(8 * width)), 8 * width * e)``, and a monomial c*q^e
    ``_Packed(c, 8 * width * e)``.  At q = -2^(8 * width) each coefficient
    of q^m takes the sign (-1)^m first, which makes the factor's p
    (-1)^e * p(-2^(8 * width)).  Every coefficient must fit the slot.
    """
    shift = 8 * width
    factors = []
    for seq in sequences:
        row = []
        for s in seq:
            cs = s.num.coeffs
            if sign < 0:
                cs = tuple(-c if m & 1 else c for m, c in enumerate(cs))
            e = next((i for i, c in enumerate(cs) if c), 0)
            row.append(_Packed(_evaluate(cs[e:], width), shift * e))
        factors.append(row)
    return factors


def _packed_width(sequences: Sequence[Sequence[Scalar]], bound: Callable[..., int]) -> int | None:
    """Bytes a slot needs for a computation over the scalars of each sequence.

    ``bound`` is called with the l1 norms of the scalars' coefficients, one
    list per sequence, and returns a bound on the coefficients of every
    value the computation reads back or compares: the same computation run
    over the norms.  The slot holds that bound and the scalars' own
    coefficients.  None unless every scalar is a polynomial with int
    coefficients.
    """
    norms = _l1_norms(sequences)
    if norms is None:
        return None
    return _slot_width(max((bound(*norms), *(_magnitude(s.num.coeffs) for seq in sequences for s in seq))))


# The widest packed slot, in bytes.  Past it the Scalar ring is faster, with
# monomial weights as shifts too.  last_box_table(qpowers(n), n, "second")
# takes 0.09-0.12 s over Scalars and 0.24-0.40 s packed at n = 40 (10-byte
# slots), 0.65-0.73 s against 1.9-2.4 s at n = 64; family_table("gauss", 48)
# 0.19-0.28 s against 0.54-0.87 s.  The triad's gauss table takes 63 ms packed
# and 106 ms over Scalars at 64 rows (8-byte slots), 412 against 189 ms at 72
# rows (9 bytes), 717 against 344 ms at 80 (10 bytes) and 1723 against 763 ms
# at 100 (13 bytes); a seeded d != 0 spec at 52 rows, 232 against 160 ms for
# its duals (10 bytes) and 129 against 107 ms for its table (12 bytes).  Only
# a small q(k) = k*q spec at 26 rows is still faster packed past the cap, 2.3
# against 3.6 ms for its duals (11 bytes).  In-process medians of 5, Python
# 3.11, 2-vCPU Xeon.
_MAX_SLOT = 8


def _ring_for(sequences: Sequence[Sequence[Scalar]], bound: Callable[..., int]) -> tuple[Sequence, Callable]:
    """The ring of a recurrence that multiplies by the scalars of each sequence.

    Its values, one list per sequence, and the read-back of a cell as a
    canonical Scalar.  Native ints and Fractions when every scalar is
    constant in q, read back with ``as_scalar``; :func:`_packed_factors` at
    the slot of :func:`_packed_width` when every scalar is a polynomial with
    int coefficients and that slot is at most ``_MAX_SLOT`` bytes; else the
    sequences themselves, read back with ``as_scalar``.
    """
    if all(s.is_rational() for seq in sequences for s in seq):
        return [[s.num.coeffs[0] for s in seq] for seq in sequences], as_scalar
    width = _packed_width(sequences, bound)
    if width is not None and width <= _MAX_SLOT:
        return _packed_factors(sequences, width), lambda value: _packed_scalar(value, width)
    return sequences, as_scalar


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


_TOKEN_RE = re.compile(r"[0-9]+|[A-Za-z]+|\S")

# Largest q-degree of a numerator or denominator that the parser builds.  It
# is above every text the package prints at the sizes it is run at, and
# `table --family gauss --rows 64` (q-degree 32 * 32 = 1024 at most) still
# parses back, while (1 + q)^1024 parses in well under a second.
_Q_DEGREE_CAP = 1024
# Largest bit length of a coefficient's numerator or denominator that the
# parser builds.  Python prints an int of at most 4300 digits by default
# (sys.get_int_max_str_digits), which is at most 14285 bits, so every
# coefficient the package can print parses back, while no text builds an
# integer that takes more than about 2 KB.
_COEFF_BITS_CAP = 16384


def tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text)


def _is_integer(tok: str) -> bool:
    return tok.isascii() and tok.isdigit()


def parse_expression(
    text: str,
    atoms: dict[str, object],
    from_int: Callable[[int], object],
    size: Callable[[object], tuple[int, int]],
):
    """Recursive-descent evaluator for the scalar/polynomial expression grammar.

    ``atoms`` maps symbol names (e.g. "q", "x") to algebra values; the value
    type must support +, -, *, /, unary minus and integer **.  ``size`` gives
    a value's largest q-degree and its widest coefficient in bits, over every
    numerator and denominator in it; a Fraction is as wide as the wider of
    its numerator and denominator.

    A sum whose first term is a Scalar reads each later term printed as the
    integer c, q, q^e, c*q or c*q^e, and followed by "+", "-", ")" or the
    end, straight off the tokens: c goes into one coefficient list at index
    e, with its sign.  Its other later terms that are Scalars over the unit
    denominator are added into the same list in place, and that polynomial
    is added to the rest of the sum at the end.  Every other term -- a
    Scalar with a denominator, or a value of another type, such as ``Poly``
    -- is added to the running sum in order.  A term that the reader
    declines, such as 1/2*q^3, or one over a cap, is left to the general
    path, which reads it or raises its error.

    These are :class:`ParseError`, like any other bad input: an exponent over
    ``_Q_DEGREE_CAP``; a power whose q-degree, or whose coefficient width
    estimated as the base's times the exponent, would exceed
    ``_Q_DEGREE_CAP`` or ``_COEFF_BITS_CAP``, refused before it is computed;
    a product, a quotient, a step of a sum that adds a term in order, or a
    whole sum, whose value exceeds either cap; an integer token with more
    digits than the interpreter reads from a string (4300 by default); and
    nesting of parentheses or unary minus deeper than the recursion limit
    allows.
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

    def check(degree: int, bits: int) -> None:
        if degree > _Q_DEGREE_CAP:
            raise ParseError(f"q-degree {degree} exceeds cap {_Q_DEGREE_CAP} in {text!r}")
        if bits > _COEFF_BITS_CAP:
            raise ParseError(f"coefficient of {bits} bits exceeds cap {_COEFF_BITS_CAP} in {text!r}")

    def printed_term() -> tuple[int, int] | None:
        """Read the term at pos printed as c, q, q^e, c*q or c*q^e into (c, e).

        The term must be followed by "+", "-", ")" or the end.  Anything
        else is left unread, for ``parse_product`` to read or refuse: an
        integer past the digit limit, a coefficient or exponent over its
        cap, a "^" with no integer after it, or a term that goes on with
        "*", "/" or "^".
        """
        nonlocal pos
        i, end, c, e = pos, len(tokens), 1, 1
        if i < end and _is_integer(tokens[i]):
            try:
                c = int(tokens[i])
            except ValueError:
                return None
            if c.bit_length() > _COEFF_BITS_CAP:
                return None
            i += 1
            if i < end and tokens[i] == "*":
                i += 1
            else:
                e = 0
        if e:
            if i == end or tokens[i] != "q":
                return None
            i += 1
            if i < end and tokens[i] == "^":
                i += 1
                if i == end or not _is_integer(tokens[i]):
                    return None
                try:
                    e = int(tokens[i])
                except ValueError:
                    return None
                if e > _Q_DEGREE_CAP:
                    return None
                i += 1
        if i < end and tokens[i] not in ("+", "-", ")"):
            return None
        pos = i
        return c, e

    def parse_sum():
        value = parse_product()
        coeffs = []  # the q-polynomial terms after the first, summed in place
        printed = value.__class__ is Scalar
        while peek() in ("+", "-"):
            negate = take() == "-"
            if printed and (read := printed_term()) is not None:
                c, e = read
                if len(coeffs) <= e:
                    coeffs.extend(repeat(0, e + 1 - len(coeffs)))
                coeffs[e] = coeffs[e] - c if negate else coeffs[e] + c
                continue
            term = parse_product()
            if term.__class__ is Scalar and term.den.coeffs == _UNIT:
                _add_into(coeffs, term.num.coeffs, negate)
            else:
                value = value - term if negate else value + term
                check(*size(value))
        if coeffs:
            value = value + Scalar._raw(QPoly(coeffs), QP_ONE)
            check(*size(value))
        return value

    def parse_product():
        value = parse_factor()
        while peek() in ("*", "/"):
            op = take()
            rhs = parse_factor()
            value = value * rhs if op == "*" else value / rhs
            check(*size(value))
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
            if not _is_integer(tok):
                raise ParseError(f"integer exponent expected, got {tok!r} in {text!r}")
            try:
                n = int(tok)
            except ValueError:
                raise _digit_limit_error(tok) from None
            if n > _Q_DEGREE_CAP:
                raise ParseError(f"exponent {n} exceeds cap {_Q_DEGREE_CAP} in {text!r}")
            degree, bits = size(base)
            check(degree * n, bits * n)
            return base ** (sign * n)
        return base

    def parse_atom():
        tok = take()
        if _is_integer(tok):
            try:
                value = int(tok)
            except ValueError:
                raise _digit_limit_error(tok) from None
            return from_int(value)
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


def _digit_limit_error(tok: str) -> ParseError:
    """The error for an integer token past the interpreter's limit on digits read from a string."""
    return ParseError(f"integer of {len(tok)} digits exceeds the limit of {sys.get_int_max_str_digits()} digits")


def _add_into(acc: list, cs: tuple, negate: bool) -> None:
    """Add the coefficients cs, negated if ``negate``, into the list acc in place."""
    if len(acc) < len(cs):
        acc.extend(repeat(0, len(cs) - len(acc)))
    acc[: len(cs)] = map(sub if negate else add, acc, cs)


def _coeff_bits(cs: tuple) -> int:
    """The largest bit length of a numerator or denominator among the coefficients cs."""
    if cs.count(0) == len(cs) - 1:
        cs = cs[-1:]  # a monomial, such as the product c*q^k
    # as in QPoly.__mul__: the sum is an int exactly when every entry is
    if sum(cs).__class__ is int:
        return max(max(cs), -min(cs)).bit_length()
    return max(max(c.numerator.bit_length(), c.denominator.bit_length()) for c in cs)


def _size(s: Scalar) -> tuple[int, int]:
    """The largest q-degree and coefficient bit length of s's numerator and denominator."""
    num, den = s.num.coeffs, s.den.coeffs
    if den == _UNIT:
        return len(num) - 1, _coeff_bits(num)
    return max(len(num), len(den)) - 1, max(_coeff_bits(num), _coeff_bits(den))


def parse_scalar(text: str) -> Scalar:
    """Parse the scalar text grammar back into a canonical Scalar."""
    value = parse_expression(text, {"q": Q}, as_scalar, _size)
    assert isinstance(value, Scalar)
    return value
