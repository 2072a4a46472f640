"""Truncated formal power series over the scalar field, plus the two
generating-function checks for the deformed Stirling triangles.

A :class:`Series` is a fixed-order jet: arithmetic is exact on the first
T+1 coefficients and silently drops everything above x^T, by contract.
Reciprocals exist exactly when the constant term is a unit (nonzero).
"""

from __future__ import annotations

from typing import Iterable

from .poly import Poly, X
from .psi import PsiSequence, n_psi
from .psi_extensions import psi_stirling_first, psi_stirling_second
from .scalar import ONE, Scalar, ZERO, as_scalar


class OrderMismatchError(ValueError):
    """Arithmetic between series truncated at different orders."""


class NonUnitError(ZeroDivisionError):
    """Reciprocal of a series whose constant term is zero."""


class Series:
    """Formal power series in x truncated at a fixed order."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar | int], order: int):
        if order < 0:
            raise ValueError("truncation order must be nonnegative")
        cs = [as_scalar(c) for c in coeffs][: order + 1]
        cs.extend([ZERO] * (order + 1 - len(cs)))
        self.coeffs = tuple(cs)

    @classmethod
    def one(cls, order: int) -> "Series":
        return cls([ONE], order)

    @classmethod
    def x_power(cls, k: int, order: int) -> "Series":
        return cls([ZERO] * k + [ONE], order)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, n: int) -> Scalar:
        return self.coeffs[n]

    def _match(self, other: "Series") -> None:
        if self.order != other.order:
            raise OrderMismatchError(f"series orders differ: {self.order} != {other.order}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "Series") -> "Series":
        self._match(other)
        return Series([a + b for a, b in zip(self.coeffs, other.coeffs)], self.order)

    def __sub__(self, other: "Series") -> "Series":
        self._match(other)
        return Series([a - b for a, b in zip(self.coeffs, other.coeffs)], self.order)

    def __mul__(self, other: "Series") -> "Series":
        self._match(other)
        order = self.order
        out = [ZERO] * (order + 1)
        for i, ai in enumerate(self.coeffs):
            if ai.is_zero():
                continue
            for j in range(order + 1 - i):
                bj = other.coeffs[j]
                if not bj.is_zero():
                    out[i + j] = out[i + j] + ai * bj
        return Series(out, order)

    def recip(self) -> "Series":
        """Multiplicative inverse modulo x^(order+1)."""
        a0 = self.coeffs[0]
        if a0.is_zero():
            raise NonUnitError("series with zero constant term has no reciprocal")
        inv0 = ONE / a0
        out = [inv0]
        for n in range(1, self.order + 1):
            acc = ZERO
            for i in range(1, n + 1):
                ai = self.coeffs[i]
                if not ai.is_zero():
                    acc = acc + ai * out[n - i]
            out.append(-inv0 * acc)
        return Series(out, self.order)

    def __repr__(self) -> str:
        shown = ", ".join(str(c) for c in self.coeffs[:5])
        tail = ", ..." if self.order >= 5 else ""
        return f"Series([{shown}{tail}], order={self.order})"


def check_stirling2_series(psi: PsiSequence, k: int, order: int) -> bool:
    """Column generating function of the second-kind deformed triangle.

    Compares sum_n {n k}_psi x^n with
    x^k / ((1 - 1_psi x)(1 - 2_psi x)...(1 - k_psi x)) through the order.
    """
    if k < 0 or order < k:
        raise ValueError("expects 0 <= k <= order")
    lhs = Series(
        [psi_stirling_second(psi, n, k) if n >= k else ZERO for n in range(order + 1)],
        order,
    )
    denominator = Series.one(order)
    for i in range(1, k + 1):
        denominator = denominator * Series([ONE, -n_psi(psi, i)], order)
    rhs = Series.x_power(k, order) * denominator.recip()
    return lhs == rhs


def check_stirling1_polynomial(psi: PsiSequence, n: int) -> bool:
    """Row generating polynomial of the first-kind deformed triangle.

    Compares sum_k [n k]_psi x^k with x(x + 1_psi)...(x + (n-1)_psi) as an
    exact polynomial identity (no truncation).
    """
    if n < 1:
        raise ValueError("expects n >= 1")
    lhs = Poly([psi_stirling_first(psi, n, k) for k in range(n + 1)])
    rhs = X
    for j in range(1, n):
        rhs = rhs * Poly([n_psi(psi, j), ONE])
    return lhs == rhs
