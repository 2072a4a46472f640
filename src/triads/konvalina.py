"""Generalized weighted binomial coefficients over arbitrary weight vectors.

Picture n boxes where box i holds w_i balls.  Selecting k balls from k
distinct boxes (one per box) gives the first-kind coefficient -- the
elementary symmetric polynomial e_k(w_1..w_n); allowing box repetition
gives the second-kind coefficient -- the complete homogeneous h_k.

Each kind comes in two computational routes that the test suite plays
against each other:

  * ``*_oracle``   -- direct enumeration of the index tuples (the
                      definitional, anti-regression route; exponential,
                      intended for the desk scale),
  * ``first_kind`` / ``second_kind``, the ``_*_row`` helpers they read
    their value from (all of e_0..e_k or h_0..h_k in one pass) and the
    ``*_table`` builders -- the two-term last-box recurrences.

``second_kind_triangle`` is the (n, k)-indexed reshaping of the second
kind (value S_{n-k}^k) computed through its own flipped recurrence, the
shape Stirling triangles satisfy.  ``binomial`` and ``q_binomial`` are the
binomial and Gaussian arrays as these coefficients over unit and q-power
weights; they are the only definition of the pascal and gauss family
values.  The summation identities derived from the last-box decomposition
are checked by ``suites.suite_corollary``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from typing import Iterable

from .scalar import ONE, Scalar, ZERO, as_scalar, qpow


@dataclass(frozen=True)
class WeightVector:
    """Per-box weights w_1..w_n (1-indexed); immutable."""

    weights: tuple[Scalar, ...]

    @classmethod
    def of(cls, values: Iterable) -> "WeightVector":
        return cls(tuple(as_scalar(v) for v in values))

    def __len__(self) -> int:
        return len(self.weights)

    def w(self, i: int) -> Scalar:
        """1-indexed access, matching the box-counting convention."""
        if not 1 <= i <= len(self.weights):
            raise IndexError(f"weight index {i} outside 1..{len(self.weights)}")
        return self.weights[i - 1]

    def prefix(self, n: int) -> "WeightVector":
        return WeightVector(self.weights[:n])

    def tail(self, start: int) -> "WeightVector":
        """Weights w_{start+1}.. as their own vector."""
        return WeightVector(self.weights[start:])

    def constant_values(self) -> list[int | Fraction] | None:
        """Plain rational values when every weight is constant in q, else None.

        Integral weights come back as ints, which keeps the enumeration
        oracles on fast native arithmetic.
        """
        out = []
        for s in self.weights:
            if not s.is_rational():
                return None
            out.append(s.num.coeffs[0])
        return out


def ones(n: int) -> WeightVector:
    return WeightVector((ONE,) * n)


def naturals(n: int) -> WeightVector:
    return WeightVector(tuple(as_scalar(i) for i in range(1, n + 1)))


def qpowers(n: int) -> WeightVector:
    return WeightVector(tuple(qpow(i) for i in range(n)))


WEIGHT_RULES = {"ones": ones, "naturals": naturals, "qpowers": qpowers}


# -- definitional oracles ----------------------------------------------------

def first_kind_oracle(w: WeightVector, k: int) -> Scalar:
    """Sum of products over strictly increasing index tuples (enumeration)."""
    if k < 0:
        return ZERO
    if k == 0:
        return ONE
    if k > len(w):
        return ZERO
    values = w.constant_values()
    if values is not None:
        return as_scalar(Fraction(sum(math.prod(c) for c in combinations(values, k))))
    total = ZERO
    for combo in combinations(w.weights, k):
        term = ONE
        for s in combo:
            term = term * s
        total = total + term
    return total


def second_kind_oracle(w: WeightVector, k: int) -> Scalar:
    """Sum of products over weakly increasing index tuples (enumeration)."""
    if k < 0:
        return ZERO
    if k == 0:
        return ONE
    if len(w) == 0:
        return ZERO
    values = w.constant_values()
    if values is not None:
        return as_scalar(Fraction(sum(math.prod(c) for c in combinations_with_replacement(values, k))))
    total = ZERO
    for combo in combinations_with_replacement(w.weights, k):
        term = ONE
        for s in combo:
            term = term * s
        total = total + term
    return total


# -- recurrence fast paths ---------------------------------------------------

def _first_kind_row(w: WeightVector, k: int) -> list[Scalar]:
    """e_0..e_k of the weights, all from one pass of the last-box recurrence."""
    dp = [ONE] + [ZERO] * k
    for i, wi in enumerate(w.weights, start=1):
        for j in range(min(i, k), 0, -1):
            dp[j] = dp[j] + wi * dp[j - 1]
    return dp


def _second_kind_row(w: WeightVector, k: int) -> list[Scalar]:
    """h_0..h_k of the weights, all from one pass of the last-box recurrence."""
    dp = [ONE] + [ZERO] * k
    for wi in w.weights:
        for j in range(1, k + 1):
            dp[j] = dp[j] + wi * dp[j - 1]
    return dp


def first_kind(w: WeightVector, k: int) -> Scalar:
    """e_k of the weights via the last-box recurrence."""
    if k < 0 or k > len(w):
        return ZERO
    return _first_kind_row(w, k)[k]


def second_kind(w: WeightVector, k: int) -> Scalar:
    """h_k of the weights via the last-box recurrence."""
    if k < 0:
        return ZERO
    return _second_kind_row(w, k)[k]


def first_kind_table(w: WeightVector, rows: int) -> list[list[Scalar]]:
    """Triangular table of first-kind values through the given box count."""
    if rows > len(w):
        raise ValueError(f"table of {rows} rows needs {rows} weights, got {len(w)}")
    table = [[ONE]]
    for n in range(1, rows + 1):
        prev = table[n - 1]
        wn = w.w(n)
        row = [ONE]
        for k in range(1, n + 1):
            upper = prev[k] if k < n else ZERO
            row.append(upper + wn * prev[k - 1])
        table.append(row)
    return table


def second_kind_table(w: WeightVector, k_max: int, n_max: int) -> list[list[Scalar]]:
    """Rectangular table: entry [n][k] is the second-kind value for n boxes."""
    if n_max > len(w):
        raise ValueError(f"table over {n_max} boxes needs {n_max} weights, got {len(w)}")
    table = [[ONE] + [ZERO] * k_max]
    for n in range(1, n_max + 1):
        prev = table[n - 1]
        wn = w.w(n)
        row = [ONE]
        for k in range(1, k_max + 1):
            row.append(prev[k] + wn * row[k - 1])
        table.append(row)
    return table


def second_kind_triangle(w: WeightVector, n: int, k: int) -> Scalar:
    """The (n, k)-triangle reshaping of the second kind: value S_{n-k}^k.

    Computed by its own recurrence
        T(n, k) = w_k*T(n-1, k) + T(n-1, k-1),
    with T(0, 0) = 1 and zero elsewhere on the boundary (column 0 vanishes
    for n >= 1: the triangle carries ones on its diagonal, not in its
    first column).
    """
    if k < 0 or n < 0:
        return ZERO
    if k > len(w):
        raise IndexError(f"triangle column {k} needs weight w_{k}, vector has {len(w)}")
    row = [ONE] + [ZERO] * k
    for _ in range(n):
        new = [ZERO]
        for j in range(1, k + 1):
            new.append(w.w(j) * row[j] + row[j - 1])
        row = new
    return row[k]


# -- identity checks ---------------------------------------------------------

def last_box_identity(w: WeightVector, k: int, kind: str = "first") -> bool:
    """Decomposition by the last selected box, summed over the box index."""
    n = len(w)
    if k == 0:
        return True
    if kind == "first":
        lhs = first_kind(w, k)
        rhs = ZERO
        for i in range(1, n + 1):
            rhs = rhs + w.w(i) * first_kind(w.prefix(i - 1), k - 1)
    elif kind == "second":
        lhs = second_kind(w, k)
        rhs = ZERO
        for i in range(1, n + 1):
            rhs = rhs + w.w(i) * second_kind(w.prefix(i), k - 1)
    else:
        raise ValueError(f"kind must be 'first' or 'second', got {kind!r}")
    return lhs == rhs


def split_identity(w: WeightVector, split: int, k: int) -> bool:
    """Vandermonde-style splitting across a prefix/tail cut, both kinds."""
    if not 0 <= split <= len(w):
        raise ValueError(f"split {split} outside 0..{len(w)}")
    head = w.prefix(split)
    tail = w.tail(split)
    for value, row in ((first_kind, _first_kind_row), (second_kind, _second_kind_row)):
        lhs = value(w, k)
        left, right = row(head, k), row(tail, k)
        rhs = ZERO
        for i in range(k + 1):
            if not left[i].is_zero():
                rhs = rhs + left[i] * right[k - i]
        if lhs != rhs:
            return False
    return True


def binomial(n: int, k: int) -> Scalar:
    """Binomial coefficient as the first kind over unit weights."""
    if k < 0 or n < 0:
        return ZERO
    return first_kind(ones(n), k)


def q_binomial(n: int, k: int) -> Scalar:
    """Gaussian q-binomial coefficient as the second kind over q-power weights."""
    if k < 0 or k > n:
        return ZERO
    return second_kind(qpowers(n - k + 1), k)
