"""Polynomials in the indeterminate x over the Q(q) scalar field.

Dense ascending representation: ``coeffs[j]`` is the Scalar coefficient of
x^j, with the trailing coefficient nonzero except for the zero polynomial.
The canonical string form is descending, "c_k*x^k + ... + c_0"; the JSON
form is the ascending list of Scalar text forms.

A fixed degree cap of 64 guards against runaway symbolic growth;
operations that would exceed it raise :class:`DegreeLimitError`.  Its
counterpart for q is ``scalar._Q_DEGREE_CAP``, which bounds the q-degree
of everything :func:`parse_poly` and ``parse_scalar`` build.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .scalar import ONE, Scalar, ZERO, _size, _wrap, as_scalar, parse_expression

_DEGREE_CAP = 64


class DegreeLimitError(OverflowError):
    """A polynomial operation exceeded the degree cap."""


def _check_degree(degree: int) -> None:
    if degree > _DEGREE_CAP:
        raise DegreeLimitError(f"degree {degree} exceeds cap {_DEGREE_CAP}")


class Poly:
    """Polynomial in x with Scalar coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar | int | Fraction]):
        cs = [as_scalar(c) for c in coeffs]
        while len(cs) > 1 and cs[-1].is_zero():
            cs.pop()
        if not cs:
            cs = [ZERO]
        _check_degree(len(cs) - 1)
        self.coeffs = tuple(cs)

    @classmethod
    def _raw(cls, coeffs: tuple[Scalar, ...]) -> "Poly":
        p = object.__new__(cls)
        p.coeffs = coeffs
        return p

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0].is_zero()

    def lead(self) -> Scalar:
        return self.coeffs[-1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __neg__(self) -> "Poly":
        return Poly._raw(tuple(-c for c in self.coeffs))

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, bi in enumerate(b):
            out[i] = out[i] + bi
        while len(out) > 1 and out[-1].is_zero():
            out.pop()
        return Poly._raw(tuple(out))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero() or other.is_zero():
            return P_ZERO
        deg = self.degree() + other.degree()
        _check_degree(deg)
        out = [ZERO] * (deg + 1)
        for i, ai in enumerate(self.coeffs):
            if not ai.is_zero():
                for j, bj in enumerate(other.coeffs):
                    if not bj.is_zero():
                        out[i + j] = out[i + j] + ai * bj
        return Poly._raw(tuple(out))

    def __pow__(self, n: int) -> "Poly":
        if not isinstance(n, int):
            raise TypeError("polynomial exponent must be an integer")
        if self.degree() == 0:
            return Poly._raw((self.coeffs[0] ** n,))
        if n < 0:
            raise ValueError("negative power of a non-constant polynomial")
        result = P_ONE
        for _ in range(n):
            result = result * self
        return result

    def __truediv__(self, other: object) -> "Poly":
        if isinstance(other, Poly):
            if other.degree() != 0:
                raise ValueError("division by a non-constant polynomial in x is not supported")
            other = other.coeffs[0]
        return self.scale(ONE / as_scalar(other))

    def scale(self, s: Scalar | int | Fraction) -> "Poly":
        s = as_scalar(s)
        if s.is_zero() or self.is_zero():
            return P_ZERO
        return Poly._raw(tuple(c * s for c in self.coeffs))

    def times_x(self) -> "Poly":
        """Multiply by x, raising the degree by one."""
        if self.is_zero():
            return P_ZERO
        _check_degree(self.degree() + 1)
        return Poly._raw((ZERO,) + self.coeffs)

    def eval(self, s: Scalar | int | Fraction) -> Scalar:
        """Horner evaluation at a Scalar point."""
        s = as_scalar(s)
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * s + c
        return acc

    def json_coefficients(self) -> list[str]:
        """Ascending list of Scalar text forms (the JSON wire form)."""
        return [str(c) for c in self.coeffs]

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"Poly({str(self)!r})"


P_ZERO = Poly._raw((ZERO,))
P_ONE = Poly._raw((ONE,))
X = Poly._raw((ZERO, ONE))


def x_power(k: int) -> Poly:
    """The monomial x^k."""
    if k < 0:
        raise ValueError("x_power expects k >= 0")
    _check_degree(k)
    return Poly._raw((ZERO,) * k + (ONE,))


def format_poly(p: Poly) -> str:
    """Descending canonical string form."""
    if p.is_zero():
        return "0"
    parts: list[str] = []
    for k in range(p.degree(), -1, -1):
        c = p.coeffs[k]
        if c.is_zero():
            continue
        # sign of the numerator's leading coefficient (denominator is monic)
        negative = c.num.lead() < 0
        mag = -c if negative else c
        if k == 0:
            body = _wrap(str(mag))
        else:
            power = "x" if k == 1 else f"x^{k}"
            body = power if mag.is_one() else f"{_wrap(str(mag))}*{power}"
        if not parts:
            parts.append("-" + body if negative else body)
        else:
            parts.append((" - " if negative else " + ") + body)
    return "".join(parts)


def _poly_size(p: Poly) -> tuple[int, int]:
    degrees, bits = zip(*map(_size, p.coeffs))
    return max(degrees), max(bits)


def parse_poly(text: str) -> Poly:
    """Parse the polynomial grammar (the scalar grammar plus the symbol x)."""
    from .scalar import Q

    q_poly = Poly._raw((Q,))
    value = parse_expression(
        text,
        {"q": q_poly, "x": X},
        lambda n: Poly._raw((as_scalar(n),)),
        _poly_size,
    )
    assert isinstance(value, Poly)
    return value
