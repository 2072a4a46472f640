"""Diagonal operator calculus on the polynomial algebra.

Every operator here is diagonal in the monomial basis and is stored by its
eigenvalue sequence: op(x^m) = eigen[m] * x^m up to a working degree bound.
Sums and compositions are then pointwise on eigenvalues.  The weights of an
operator-valued array are such operators themselves, so the array's entry
collapses, monomial by monomial, to a scalar weighted-coefficient
evaluation over the weights' eigenvalues on x^m -- no operator-sum
expansion ever happens.  Monomials that see the same eigenvalues share one
evaluation.  A single entry (``konkwa_first_kind``, ``konkwa_second_kind``
and the named arrays) runs one last-box pass to its column;
``konkwa_table`` gives every entry over every prefix of the weights, rows
and columns at once, from one pass per distinct eigenvalue vector.

The generating operator is :func:`qhat`: its eigenvalue on x^m is

    ((m+1)_psi - 1) / m_psi        for m >= 1,

the ratio shifted so that the qfact sequence yields the constant q on
every monomial (the unshifted ratio is 0/0 at m = 0 under any indexing;
we set eigen[0] = eigen[1], which continues that constant).  The three
named arrays take that operator, built once by the caller, and weight
their boxes with its powers or its geometric sums; each is a reindexing of
one such table (see ``suites.suite_operator``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Sequence

from . import konvalina
from .konvalina import WeightVector, check_triangle
from .poly import Poly
from .psi import PsiSequence, n_psi
from .scalar import ONE, Scalar, as_scalar


class DepthExceededError(ValueError):
    """A polynomial of degree beyond the operator's working bound was applied."""


class DiagOp:
    """Linear operator diagonal in the monomial basis."""

    __slots__ = ("eigen",)

    def __init__(self, eigen: Sequence[Scalar]):
        if not eigen:
            raise ValueError("an operator needs at least the eigenvalue on x^0")
        self.eigen = tuple(as_scalar(v) for v in eigen)

    @classmethod
    def identity(cls, depth: int) -> "DiagOp":
        return cls([ONE] * (depth + 1))

    @property
    def depth(self) -> int:
        return len(self.eigen) - 1

    def _match(self, other: "DiagOp") -> None:
        if self.depth != other.depth:
            raise ValueError(f"operator depth mismatch: {self.depth} != {other.depth}")

    def __add__(self, other: "DiagOp") -> "DiagOp":
        self._match(other)
        return DiagOp([a + b for a, b in zip(self.eigen, other.eigen)])

    def __mul__(self, other: "DiagOp") -> "DiagOp":
        """Composition; diagonal operators compose by eigenvalue product."""
        self._match(other)
        return DiagOp([a * b for a, b in zip(self.eigen, other.eigen)])

    def __pow__(self, n: int) -> "DiagOp":
        if n < 0:
            raise ValueError("negative operator powers are not defined here")
        return DiagOp([v**n for v in self.eigen])

    def apply(self, p: Poly) -> Poly:
        """Coefficient-wise action on a polynomial within the degree bound."""
        if p.degree() > self.depth:
            raise DepthExceededError(
                f"polynomial degree {p.degree()} exceeds operator depth {self.depth}"
            )
        return Poly([c * self.eigen[m] for m, c in enumerate(p.coeffs)])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiagOp):
            return NotImplemented
        return self.eigen == other.eigen

    def __hash__(self) -> int:
        return hash(self.eigen)

    def __repr__(self) -> str:
        shown = ", ".join(str(v) for v in self.eigen[:4])
        tail = ", ..." if self.depth >= 4 else ""
        return f"DiagOp([{shown}{tail}], depth={self.depth})"


def qhat(psi: PsiSequence, depth: int) -> DiagOp:
    """The deformation operator generated by an admissible sequence."""
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    # the ratios at m = 1..depth; eigen[0] repeats the one at m = 1
    ratios = [(n_psi(psi, m + 1) - ONE) / n_psi(psi, m) for m in range(1, max(depth, 1) + 1)]
    return DiagOp(ratios[:1] + ratios[:depth])


@dataclass(frozen=True)
class OpWeightVector:
    """Entries w_1..w_n, each a diagonal operator on monomials of degree <= depth.

    Diagonal operators commute, so the weighted-coefficient sums over the
    entries are well defined operators.
    """

    depth: int
    entries: tuple[DiagOp, ...]

    def __len__(self) -> int:
        return len(self.entries)

    def prefix(self, n: int) -> "OpWeightVector":
        return OpWeightVector(self.depth, self.entries[:n])

    def scalar_weights(self, m: int) -> WeightVector:
        """The plain weight vector seen by the monomial x^m."""
        return WeightVector(tuple(e.eigen[m] for e in self.entries))


def qhat_power_entries(base: DiagOp, n: int) -> OpWeightVector:
    """Entries (1, base, base^2, ..., base^(n-1))."""
    powers = [DiagOp.identity(base.depth)]
    while len(powers) < n:
        powers.append(powers[-1] * base)
    return OpWeightVector(base.depth, tuple(powers[:n]))


def n_qhat_entries(base: DiagOp, n: int) -> OpWeightVector:
    """Entries (1_base, 2_base, ..., n_base): i-th is 1 + base + ... + base^(i-1)."""
    return OpWeightVector(base.depth, tuple(accumulate(qhat_power_entries(base, n).entries)))


def _per_monomial(ow: OpWeightVector, evaluate: Callable[[WeightVector], object]) -> list:
    """``evaluate`` of the plain weight vector seen by each monomial x^0..x^depth.

    The per-call cache is keyed on the entries' eigenvalues at x^m, so
    ``evaluate`` runs once per distinct weight vector, not once per monomial.
    """
    cache: dict[WeightVector, object] = {}
    out = []
    for m in range(ow.depth + 1):
        weights = ow.scalar_weights(m)
        value = cache.get(weights)
        if value is None:
            value = cache[weights] = evaluate(weights)
        out.append(value)
    return out


def _konkwa(ow: OpWeightVector, k: int, value_fn) -> DiagOp:
    """Per-monomial scalar evaluation of an operator-valued coefficient."""
    return DiagOp(_per_monomial(ow, lambda weights: value_fn(weights, k)))


def konkwa_first_kind(ow: OpWeightVector, k: int) -> DiagOp:
    """Operator-valued first-kind coefficient over operator weights."""
    return _konkwa(ow, k, konvalina.first_kind)


def konkwa_second_kind(ow: OpWeightVector, k: int) -> DiagOp:
    """Operator-valued second-kind coefficient over operator weights."""
    return _konkwa(ow, k, konvalina.second_kind)


def konkwa_table(ow: OpWeightVector, k_max: int, kind: str) -> list[list[DiagOp]]:
    """Every operator-valued coefficient of the kind over a prefix of the entries.

    Entry [n][k] is the kind's coefficient k over the first n entries, for
    rows n = 0..len(ow) and columns k = 0..k_max.  Each distinct weight
    vector seen by a monomial runs one last-box pass, whose states give that
    monomial's eigenvalue in every entry.
    """
    tables = _per_monomial(ow, lambda weights: konvalina.last_box_table(weights, k_max, kind))
    return [[DiagOp(eigen) for eigen in zip(*(table[n] for table in tables))] for n in range(len(ow) + 1)]


# -- the three named operator arrays -----------------------------------------

def binomial_operator(base: DiagOp, n: int, k: int) -> DiagOp:
    """Operator-valued binomial array entry over the powers of ``base``."""
    check_triangle(n, k)
    return konkwa_second_kind(qhat_power_entries(base, n - k + 1), k)


def stirling2_operator(base: DiagOp, n: int, k: int) -> DiagOp:
    """Operator-valued Stirling array of the second kind over ``base``."""
    check_triangle(n, k)
    return konkwa_second_kind(n_qhat_entries(base, k), n - k)


def stirling1_operator(base: DiagOp, n: int, k: int) -> DiagOp:
    """Operator-valued Stirling array of the first kind over ``base``."""
    check_triangle(n, k)
    return konkwa_first_kind(n_qhat_entries(base, max(n - 1, 0)), n - k)


OPERATOR_ARRAYS: dict[str, Callable[[DiagOp, int, int], DiagOp]] = {
    "binom": binomial_operator,
    "stirling1": stirling1_operator,
    "stirling2": stirling2_operator,
}
