"""Generalized weighted binomial coefficients over arbitrary weight vectors.

Picture n boxes where box i holds w_i balls.  Selecting k balls from k
distinct boxes (one per box) gives the first-kind coefficient -- the
elementary symmetric polynomial e_k(w_1..w_n); allowing box repetition
gives the second-kind coefficient -- the complete homogeneous h_k.

Each kind comes in two computational routes that the test suite plays
against each other:

  * ``oracle_column``, ``first_kind_oracle`` and ``second_kind_oracle`` --
    direct enumeration of the index tuples, one enumerator fed
    ``combinations`` or ``combinations_with_replacement`` (the
    definitional, anti-regression route; exponential, intended for the
    desk scale; it shares no code with the recurrence).  It runs over the
    weights in reverse order, where the tuples drawn from the first m
    weights are a suffix of the enumeration, so one run gives the value
    over every prefix: ``oracle_column`` returns them all, the two oracles
    the last.  Each term is the product of one whole tuple taken in
    descending box order, which is exact only over commuting weights;
    every ring here commutes, but operator-valued weights would need the
    products reordered before they reuse it,
  * one last-box pass, ``_last_box_rows``, adding the boxes one at a
    time; the kinds differ only in the order it updates the columns.
    ``first_kind`` / ``second_kind`` read one value of its last state, and
    ``last_box_table`` and ``first_kind_table`` copy every state, so a
    whole table of one weight vector is one pass.  ``last_box_identity``
    and ``split_identity`` check every k' <= k at once: they read the lhs
    at every k' from one pass per kind, and sum the states of one more pass
    (per side of the split) against the weights for every rhs.

The pass and the enumerator are each one definition over a ring, and
the triangle is the triad's recurrence ``triad._triangle`` over the same
ring: the weights' values, each multiplying a cell from the right with
``*``, and ``wrap``, the read-back of a cell as a canonical Scalar; cells
start from the ints 0 and 1.  ``_ring(w, k, kind)`` asks
``scalar._ring_for``, the one chooser of the triad recurrences too, from
the weights and from a bound: the kind's pass to column k, the largest
number of factors in any value read back or compared, over the l1 norms
of the weights' coefficients.  There are three rings:

  * native ints and Fractions, when every weight is constant in q -- the
    common case, and all of the random vectors the suites draw; ``wrap``
    is ``as_scalar``, which turns a Fraction with denominator 1 into an
    int;
  * packed ints, when every weight is a polynomial with int coefficients
    (q-powers, [n]_q) and the values fit a slot of at most 8 bytes: each
    weight is a ``scalar._Packed`` factor, so a monomial weight costs a
    shift, and ``wrap`` reads a value's slots back.  The bound covers
    every coefficient of a value, and the slot also holds the weights
    themselves;
  * the Scalars themselves, for any other vector, and for packed slots
    past 8 bytes, where big-int arithmetic loses to Scalar arithmetic;
    ``wrap`` is ``as_scalar``.

Native and packed arithmetic is several times faster than ``Scalar``'s.
Values, oracles, tables and the triangle wrap each output once; the
identity checks compare both sides inside the ring and wrap nothing,
which is exact in the packed ring too: the bound covers every value
compared, and distinct polynomials within it are distinct ints.

``second_kind_triangle_table`` is the (n, k)-indexed reshaping of the
second kind (value S_{n-k}^k): the triad triangle with i = 1,
q = (0, w_1, .., w_n) and d = 0 (Konvalina's unified reading of the
binomial, Stirling and Gaussian coefficients), run by ``triad._triangle``
in one run over the whole vector.  The binomial and Gaussian arrays are
these coefficients over unit and q-power weights; the pascal and gauss
family tables read them from one pass each.  The summation identities
derived from the last-box decomposition are checked by
``suites.suite_corollary``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement, islice
from typing import Callable, Iterable, Iterator, Sequence

from .scalar import ONE, Scalar, ZERO, _ring_for, as_scalar, qpow
from .triad import _triangle


@dataclass(frozen=True)
class WeightVector:
    """Per-box weights w_1..w_n (1-indexed); immutable."""

    weights: tuple[Scalar, ...]

    @classmethod
    def of(cls, values: Iterable) -> "WeightVector":
        return cls(tuple(as_scalar(v) for v in values))

    def __len__(self) -> int:
        return len(self.weights)

    def prefix(self, n: int) -> "WeightVector":
        return WeightVector(self.weights[:n])

def ones(n: int) -> WeightVector:
    return WeightVector((ONE,) * n)


def naturals(n: int) -> WeightVector:
    return WeightVector(tuple(as_scalar(i) for i in range(1, n + 1)))


def qpowers(n: int) -> WeightVector:
    return WeightVector(tuple(qpow(i) for i in range(n)))


WEIGHT_RULES = {"ones": ones, "naturals": naturals, "qpowers": qpowers}


# -- definitional oracles ----------------------------------------------------

def _enumerate(w: WeightVector, k: int, kind: str) -> tuple[list, Callable]:
    """The kind's value k over the first m weights for every m = 0..len(w), and the map back to Scalars.

    One enumeration of the k-tuples the kind draws (distinct boxes, or
    repeats allowed) over the weights in reverse order.  In lexicographic
    order the tuples drawn from the first m weights are the last comb(m, k)
    (first kind) or comb(m + k - 1, k) (second kind), so the products are
    summed in runs, one run per box, and the running sum from the end is
    the value over each prefix.  Every term is the product of one whole
    tuple, in descending box order: the column is right only over a
    commuting ring, as every ring of this module is.  Non-commuting
    weights would need each tuple's product taken in ascending order.
    """
    n = len(w)
    if k < 0:
        return [0] * (n + 1), as_scalar
    if k == 0:
        return [1] * (n + 1), as_scalar
    values, wrap = _ring(w, k, kind)
    if kind == "first":
        index_tuples, count = combinations, lambda m: math.comb(m, k)
    else:
        index_tuples, count = combinations_with_replacement, lambda m: math.comb(m + k - 1, k)
    products = map(math.prod, index_tuples(values[::-1], k))
    runs = [sum(islice(products, count(m) - count(m - 1))) for m in range(n, 0, -1)]
    column = [0]
    for run in reversed(runs):
        column.append(column[-1] + run)
    return column, wrap


def oracle_column(w: WeightVector, k: int, kind: str) -> list[Scalar]:
    """Entry [m] is the kind's value k over the first m weights, m = 0..len(w), by one enumeration."""
    _check_kind(kind)
    column, wrap = _enumerate(w, k, kind)
    return [wrap(v) for v in column]


def first_kind_oracle(w: WeightVector, k: int) -> Scalar:
    """Sum of products over strictly increasing index tuples (enumeration)."""
    column, wrap = _enumerate(w, k, "first")
    return wrap(column[-1])


def second_kind_oracle(w: WeightVector, k: int) -> Scalar:
    """Sum of products over weakly increasing index tuples (enumeration)."""
    column, wrap = _enumerate(w, k, "second")
    return wrap(column[-1])


# -- the last-box recurrence -------------------------------------------------

def _ring(w: WeightVector, k: int, kind: str = "second") -> tuple[Sequence, Callable]:
    """The weights' ring, by ``scalar._ring_for``: their values, and the read-back of a cell as a Scalar.

    ``k`` is the most factors in any value read back or compared, and
    ``kind`` their kind; the second kind bounds the first too.  The kind's
    pass to column k over the weights' l1 norms sizes a packed slot.
    """
    (values,), wrap = _ring_for([w.weights], lambda norms: max(_last_row(norms, k, kind)))
    return values, wrap


def _check_kind(kind: str) -> None:
    if kind not in ("first", "second"):
        raise ValueError(f"kind must be 'first' or 'second', got {kind!r}")


def _last_box_rows(values: Sequence, k: int, kind: str) -> Iterator[list]:
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
    dp = [1] + [0] * k
    first = kind == "first"
    yield dp
    for i, wi in enumerate(values, start=1):
        for j in range(min(i, k), 0, -1) if first else range(1, k + 1):
            dp[j] = dp[j] + dp[j - 1] * wi
        yield dp


def _last_row(values: Sequence, k: int, kind: str) -> list:
    """The last state of the pass: values 0..k of the kind over all the values."""
    for dp in _last_box_rows(values, k, kind):
        pass
    return dp


def first_kind(w: WeightVector, k: int) -> Scalar:
    """e_k of the weights via the last-box recurrence."""
    if k < 0 or k > len(w):
        return ZERO
    values, wrap = _ring(w, k, "first")
    return wrap(_last_row(values, k, "first")[k])


def second_kind(w: WeightVector, k: int) -> Scalar:
    """h_k of the weights via the last-box recurrence."""
    if k < 0:
        return ZERO
    values, wrap = _ring(w, k)
    return wrap(_last_row(values, k, "second")[k])


def first_kind_table(w: WeightVector, rows: int) -> list[list[Scalar]]:
    """Triangular table of first-kind values through the given box count."""
    if rows < 0:
        raise ValueError("row count must be nonnegative")
    if rows > len(w):
        raise ValueError(f"table of {rows} rows needs {rows} weights, got {len(w)}")
    values, wrap = _ring(w.prefix(rows), rows, "first")
    states = _last_box_rows(values, rows, "first")
    return [[wrap(v) for v in dp[: n + 1]] for n, dp in enumerate(states)]


def last_box_table(w: WeightVector, k_max: int, kind: str) -> list[list[Scalar]]:
    """Every state of one pass: entry [n][k] is the kind's value k over the first n weights.

    Rows n = 0..len(w), columns k = 0..k_max; first-kind entries with k > n are zero.
    """
    _check_kind(kind)
    if k_max < 0:
        raise ValueError("table sizes must be nonnegative")
    values, wrap = _ring(w, k_max, kind)
    return [[wrap(v) for v in dp] for dp in _last_box_rows(values, k_max, kind)]


def last_box_row(w: WeightVector, k_max: int, kind: str) -> list[Scalar]:
    """The last state of one pass: entry [k] is the kind's value k over all the weights, k <= k_max."""
    _check_kind(kind)
    if k_max < 0:
        raise ValueError("table sizes must be nonnegative")
    values, wrap = _ring(w, k_max, kind)
    return [wrap(v) for v in _last_row(values, k_max, kind)]


def second_kind_triangle_table(w: WeightVector, n_max: int) -> list[list[Scalar]]:
    """The (n, k)-triangle reshaping of the second kind: entry [n][k] is S_{n-k}^k.

    Rows n = 0..n_max, columns k = 0..len(w); entries with k > n are zero.
    The triad triangle with i = 1, q = (0, w_1, .., w_n) and d = 0,
        T(n, k) = T(n-1, k)*w_k + T(n-1, k-1),
    with T(0, 0) = 1 and zero elsewhere on the boundary (column 0 vanishes
    for n >= 1: the triangle carries ones on its diagonal, not in its
    first column), run by ``triad._triangle`` over the weights' ring.
    Column k depends on no column past it, so each row is cut, or padded
    with zeros, to the columns 0..len(w).
    """
    if n_max < 0:
        raise ValueError("table sizes must be nonnegative")
    values, wrap = _ring(w, n_max)
    zeros = [0] * max(n_max, len(w))
    rows = _triangle([1] * len(zeros), [0, *values, *zeros], zeros, n_max)
    return [[wrap(v) for v in (row + zeros)[: len(w) + 1]] for row in rows]


# -- identity checks ---------------------------------------------------------

def last_box_identity(w: WeightVector, k: int, kind: str = "first") -> bool:
    """Decomposition by the last selected box, summed over the box index, at every k' <= k.

    At each k' the lhs is the value k' over all the boxes, and the rhs sums
    w_i times the value k'-1 over boxes 1..i-1 (first kind) or 1..i (second
    kind).  One pass to column k gives the lhs at every k'; a second pass, to
    column k-1, gives every rhs from its states.  Both sides are computed and
    compared in the weights' ring.
    """
    if k == 0:
        return True
    _check_kind(kind)
    if k < 0:
        return True
    values, _ = _ring(w, k, kind)
    lhs = _last_row(values, k, kind)
    states = _last_box_rows(values, k - 1, kind)
    if kind == "second":
        next(states)
    # rhs[j] is the rhs at k' = j + 1
    rhs = [0] * k
    for wi, dp in zip(values, states):
        for j in range(k):
            rhs[j] = rhs[j] + dp[j] * wi
    return lhs[1:] == rhs


def split_identity(w: WeightVector, split: int, k: int) -> bool:
    """Vandermonde-style splitting across a prefix/tail cut, both kinds, at every k' <= k.

    Per kind, one pass over the whole vector gives the lhs at every k', and
    one pass over each side of the cut gives every rhs.  Both sides are
    computed and compared in the ring of the whole vector.
    """
    if not 0 <= split <= len(w):
        raise ValueError(f"split {split} outside 0..{len(w)}")
    if k < 0:
        return True
    values, _ = _ring(w, k)
    for kind in ("first", "second"):
        lhs = _last_row(values, k, kind)
        left = _last_row(values[:split], k, kind)
        right = _last_row(values[split:], k, kind)
        for j in range(k + 1):
            if lhs[j] != sum(left[i] * right[j - i] for i in range(j + 1) if left[i]):
                return False
    return True


def check_triangle(n: int, k: int) -> None:
    """Raise IndexError unless 0 <= k <= n, the index range of every triangle."""
    if not 0 <= k <= n:
        raise IndexError(f"(n, k) = ({n}, {k}) outside the triangle 0 <= k <= n")
