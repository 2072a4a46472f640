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
shape Stirling triangles satisfy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from typing import Iterable

from .scalar import ONE, Scalar, ZERO, as_scalar, qpow


@dataclass(frozen=True)
class WeightVector:
    """Per-box weights w_1..w_n (1-indexed); immutable."""

    weights: tuple[Scalar, ...]
    source: str = "explicit"

    @classmethod
    def of(cls, values: Iterable, source: str = "explicit") -> "WeightVector":
        return cls(tuple(as_scalar(v) for v in values), source)

    def __len__(self) -> int:
        return len(self.weights)

    def w(self, i: int) -> Scalar:
        """1-indexed access, matching the box-counting convention."""
        if not 1 <= i <= len(self.weights):
            raise IndexError(f"weight index {i} outside 1..{len(self.weights)}")
        return self.weights[i - 1]

    def prefix(self, n: int) -> "WeightVector":
        return WeightVector(self.weights[:n], self.source)

    def tail(self, start: int) -> "WeightVector":
        """Weights w_{start+1}.. as their own vector."""
        return WeightVector(self.weights[start:], self.source)

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
    return WeightVector((ONE,) * n, "ones")


def naturals(n: int) -> WeightVector:
    return WeightVector(tuple(as_scalar(i) for i in range(1, n + 1)), "naturals")


def qpowers(n: int) -> WeightVector:
    return WeightVector(tuple(qpow(i) for i in range(n)), "qpowers")


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


@dataclass
class IdentityReport:
    """Result lines for a batch of identity checks."""

    title: str
    checks: list[tuple[str, bool]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add(self, label: str, ok: bool) -> None:
        self.checks.append((label, ok))

    @property
    def ok(self) -> bool:
        return all(ok for _, ok in self.checks)

    def lines(self) -> list[str]:
        out = [f"{'PASS' if ok else 'FAIL'} {self.title}: {label}" for label, ok in self.checks]
        out.extend(f"NOTE {self.title}: {note}" for note in self.notes)
        return out


def classical_identity_suite(limit: int) -> IdentityReport:
    """Summation identities recovered from the last-box decomposition.

    Checked for all n, k <= limit:

      1. hockey stick:        binom(n+k+1, k+1) = sum_i binom(k+i, k)
      2. column sum:          binom(n+1, k+1)   = sum_i binom(i, k)
      3. q-hockey stick:      qbinom(n+k+1, k+1) = sum_i q^i * qbinom(k+i, k)

    Two further variants sometimes listed alongside these are excluded: as
    commonly printed they equate mismatched quantities and admit no
    consistent reading, so there is nothing well-formed to verify.
    """
    report = IdentityReport(title="identities")
    top = 2 * limit + 2
    bins = first_kind_table(ones(top), top)
    qbins = _q_binomial_table(top)

    def at(table, n, k):
        return table[n][k] if 0 <= k <= n else ZERO

    ok1 = ok2 = ok5 = True
    for n in range(limit + 1):
        for k in range(limit + 1):
            partial = ZERO
            partial_q = ZERO
            for i in range(n + 1):
                partial = partial + at(bins, k + i, k)
                partial_q = partial_q + qpow(i) * at(qbins, k + i, k)
            ok1 = ok1 and at(bins, n + k + 1, k + 1) == partial
            ok5 = ok5 and at(qbins, n + k + 1, k + 1) == partial_q
            column = ZERO
            for i in range(k, n + 1):
                column = column + at(bins, i, k)
            ok2 = ok2 and at(bins, n + 1, k + 1) == column
    report.add(f"hockey stick, n,k <= {limit}", ok1)
    report.add(f"column sum, n,k <= {limit}", ok2)
    report.add(f"q-hockey stick (symbolic q), n,k <= {limit}", ok5)
    report.notes.append("two ill-formed printed variants excluded (no consistent reading)")
    return report


def _q_binomial_table(rows: int) -> list[list[Scalar]]:
    # q-Pascal recurrence; independent of the second_kind route above.
    table = [[ONE]]
    for n in range(1, rows + 1):
        prev = table[n - 1]
        row = [ONE]
        for k in range(1, n):
            row.append(prev[k - 1] + qpow(k) * prev[k])
        row.append(ONE)
        table.append(row)
    return table
