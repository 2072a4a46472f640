"""Generalized weighted binomial coefficients over arbitrary weight vectors.

Picture n boxes where box i holds w_i balls.  Selecting k balls from k
distinct boxes (one per box) gives the first-kind coefficient -- the
elementary symmetric polynomial e_k(w_1..w_n); allowing box repetition
gives the second-kind coefficient -- the complete homogeneous h_k.

Each kind comes in two computational routes that the test suite plays
against each other:

  * ``first_kind_oracle`` / ``second_kind_oracle`` -- direct enumeration
    of the index tuples, one enumerator fed ``combinations`` or
    ``combinations_with_replacement`` (the definitional, anti-regression
    route; exponential, intended for the desk scale; it shares no code
    with the recurrence),
  * one last-box pass, ``_last_box_rows``, adding the boxes one at a
    time; the kinds differ only in the order it updates the columns.
    ``first_kind`` / ``second_kind`` read its last state, the ``*_table``
    builders copy every state, and ``last_box_identity`` and
    ``split_identity`` sum its states against the weights.

The pass is one definition over a ring: it runs over the weights' values
with that ring's zero and one, and ``_ring`` chooses the ring from the
weights alone.  When every weight is constant in q -- the common case, and
all of the random vectors the suites draw -- the values are native ints
and Fractions (``WeightVector.constant_values``), which is several times
faster than the same arithmetic through ``Scalar``; otherwise they are the
Scalars themselves.  Values, tables and the triangle wrap each output once
with ``as_scalar``, which restores the canonical form (a Fraction with
denominator 1 becomes an int); the identity checks compare both sides
inside the ring and wrap nothing.

``second_kind_triangle`` is the (n, k)-indexed reshaping of the second
kind (value S_{n-k}^k) computed through its own flipped recurrence over
the same ring, the shape Stirling triangles satisfy.  ``binomial`` and
``q_binomial`` are the binomial and Gaussian arrays as these coefficients
over unit and q-power weights; they are the only definition of the pascal
and gauss family values.  The summation identities derived from the
last-box decomposition are checked by ``suites.suite_corollary``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from typing import Iterable, Iterator, Sequence

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
        oracles and the last-box pass on fast native arithmetic.
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

def _enumerate(w: WeightVector, k: int, index_tuples) -> Scalar:
    """Sum of the products of the k-tuples of weights that ``index_tuples`` draws."""
    if k < 0:
        return ZERO
    if k == 0:
        return ONE
    values = w.constant_values()
    if values is not None:
        return as_scalar(Fraction(sum(math.prod(c) for c in index_tuples(values, k))))
    total = ZERO
    for combo in index_tuples(w.weights, k):
        term = ONE
        for s in combo:
            term = term * s
        total = total + term
    return total


def first_kind_oracle(w: WeightVector, k: int) -> Scalar:
    """Sum of products over strictly increasing index tuples (enumeration)."""
    return _enumerate(w, k, combinations)


def second_kind_oracle(w: WeightVector, k: int) -> Scalar:
    """Sum of products over weakly increasing index tuples (enumeration)."""
    return _enumerate(w, k, combinations_with_replacement)


# -- the last-box recurrence -------------------------------------------------

def _ring(w: WeightVector) -> tuple[Sequence, object, object]:
    """The weights' values with the zero and one of the ring they live in.

    Native ints and Fractions when every weight is constant in q, else the
    Scalars themselves.  Either way the values are canonical once wrapped
    with ``as_scalar``.
    """
    values = w.constant_values()
    if values is None:
        return w.weights, ZERO, ONE
    return values, 0, 1


def _last_box_rows(values: Sequence, k: int, kind: str, zero, one) -> Iterator[list]:
    """Values 0..k of the kind over the first 0, 1, .., n boxes, in one pass.

    Adding box i sets dp[j] = dp[j] + dp[j-1]*w_i for every column j.  The
    kinds differ only in the column order: first kind runs k..1, so dp[j-1]
    does not yet count box i (each box at most once), and starts at column
    i, since the columns above it are still zero; second kind runs 1..k, so
    dp[j-1] already counts box i (a box may repeat).  The new box stays on
    the right of every product, so each term is a product ordered by box
    index.  Every state is the same live list of ring values; a caller that
    keeps one copies it.
    """
    dp = [one] + [zero] * k
    first = kind == "first"
    yield dp
    for i, wi in enumerate(values, start=1):
        for j in range(min(i, k), 0, -1) if first else range(1, k + 1):
            dp[j] = dp[j] + dp[j - 1] * wi
        yield dp


def _last_row(values: Sequence, k: int, kind: str, zero, one) -> list:
    """The last state of the pass: values 0..k of the kind over all the values."""
    for dp in _last_box_rows(values, k, kind, zero, one):
        pass
    return dp


def first_kind(w: WeightVector, k: int) -> Scalar:
    """e_k of the weights via the last-box recurrence."""
    if k < 0 or k > len(w):
        return ZERO
    values, zero, one = _ring(w)
    return as_scalar(_last_row(values, k, "first", zero, one)[k])


def second_kind(w: WeightVector, k: int) -> Scalar:
    """h_k of the weights via the last-box recurrence."""
    if k < 0:
        return ZERO
    values, zero, one = _ring(w)
    return as_scalar(_last_row(values, k, "second", zero, one)[k])


def first_kind_table(w: WeightVector, rows: int) -> list[list[Scalar]]:
    """Triangular table of first-kind values through the given box count."""
    if rows < 0:
        raise ValueError("row count must be nonnegative")
    if rows > len(w):
        raise ValueError(f"table of {rows} rows needs {rows} weights, got {len(w)}")
    values, zero, one = _ring(w.prefix(rows))
    states = _last_box_rows(values, rows, "first", zero, one)
    return [[as_scalar(v) for v in dp[: n + 1]] for n, dp in enumerate(states)]


def second_kind_table(w: WeightVector, k_max: int, n_max: int) -> list[list[Scalar]]:
    """Rectangular table: entry [n][k] is the second-kind value for n boxes."""
    if k_max < 0 or n_max < 0:
        raise ValueError("table sizes must be nonnegative")
    if n_max > len(w):
        raise ValueError(f"table over {n_max} boxes needs {n_max} weights, got {len(w)}")
    values, zero, one = _ring(w.prefix(n_max))
    return [[as_scalar(v) for v in dp] for dp in _last_box_rows(values, k_max, "second", zero, one)]


def second_kind_triangle(w: WeightVector, n: int, k: int) -> Scalar:
    """The (n, k)-triangle reshaping of the second kind: value S_{n-k}^k.

    Computed by its own recurrence
        T(n, k) = T(n-1, k)*w_k + T(n-1, k-1),
    with T(0, 0) = 1 and zero elsewhere on the boundary (column 0 vanishes
    for n >= 1: the triangle carries ones on its diagonal, not in its
    first column).
    """
    if k < 0 or n < 0:
        return ZERO
    if k > len(w):
        raise IndexError(f"triangle column {k} needs weight w_{k}, vector has {len(w)}")
    values, zero, one = _ring(w.prefix(k))
    row = [one] + [zero] * k
    for _ in range(n):
        new = [zero]
        for j in range(1, k + 1):
            new.append(row[j] * values[j - 1] + row[j - 1])
        row = new
    return as_scalar(row[k])


# -- identity checks ---------------------------------------------------------

def last_box_identity(w: WeightVector, k: int, kind: str = "first") -> bool:
    """Decomposition by the last selected box, summed over the box index.

    The rhs sums w_i times the value k-1 over boxes 1..i-1 (first kind) or
    1..i (second kind), all read from one pass over the weights.  Both sides
    are computed and compared in the weights' ring.
    """
    if k == 0:
        return True
    if kind not in ("first", "second"):
        raise ValueError(f"kind must be 'first' or 'second', got {kind!r}")
    if k < 0:
        return True
    values, zero, one = _ring(w)
    lhs = _last_row(values, k, kind, zero, one)[k]
    states = _last_box_rows(values, k - 1, kind, zero, one)
    if kind == "second":
        next(states)
    rhs = zero
    for wi, dp in zip(values, states):
        rhs = rhs + dp[k - 1] * wi
    return lhs == rhs


def split_identity(w: WeightVector, split: int, k: int) -> bool:
    """Vandermonde-style splitting across a prefix/tail cut, both kinds.

    Both sides are computed and compared in the ring of the whole vector.
    """
    if not 0 <= split <= len(w):
        raise ValueError(f"split {split} outside 0..{len(w)}")
    if k < 0:
        return True
    values, zero, one = _ring(w)
    for kind in ("first", "second"):
        lhs = _last_row(values, k, kind, zero, one)[k]
        left = _last_row(values[:split], k, kind, zero, one)
        right = _last_row(values[split:], k, kind, zero, one)
        rhs = zero
        for i in range(k + 1):
            if left[i]:
                rhs = rhs + left[i] * right[k - i]
        if lhs != rhs:
            return False
    return True


def check_triangle(n: int, k: int) -> None:
    """Raise IndexError unless 0 <= k <= n, the index range of every triangle."""
    if not 0 <= k <= n:
        raise IndexError(f"(n, k) = ({n}, {k}) outside the triangle 0 <= k <= n")


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
