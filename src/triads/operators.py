"""Diagonal operator calculus on the polynomial algebra.

Every operator here is diagonal in the monomial basis and is stored by its
eigenvalue sequence: op(x^m) = eigen[m] * x^m up to a working degree bound.
Sums and compositions are then pointwise on eigenvalues, and an array of
operators built from commuting weights (a sum of products of polynomials
in one shared diagonal operator) collapses, monomial by monomial, to a
scalar weighted-coefficient evaluation -- no operator-sum expansion ever
happens.

The generating operator is :func:`qhat`: its eigenvalue on x^m is

    ((m+1)_psi - 1) / m_psi        for m >= 1,

the ratio shifted so that the qfact sequence yields the constant q on
every monomial (the unshifted ratio is 0/0 at m = 0 under any indexing;
we set eigen[0] = eigen[1], which continues that constant).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from . import konvalina
from .konvalina import WeightVector, check_triangle
from .poly import Poly
from .psi import PsiSequence, n_psi
from .scalar import ONE, Scalar, ZERO, as_scalar


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

    @classmethod
    def zero(cls, depth: int) -> "DiagOp":
        return cls([ZERO] * (depth + 1))

    @property
    def depth(self) -> int:
        return len(self.eigen) - 1

    def eigenvalue(self, m: int) -> Scalar:
        return self.eigen[m]

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

    def scale(self, s: Scalar | int) -> "DiagOp":
        s = as_scalar(s)
        return DiagOp([s * v for v in self.eigen])

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


def n_qhat(psi: PsiSequence, n: int, depth: int) -> DiagOp:
    """Geometric sum 1 + qhat + ... + qhat^(n-1); the zero operator at n = 0."""
    if n < 0:
        raise ValueError("n_qhat expects n >= 0")
    if n == 0:
        return DiagOp.zero(depth)
    base = qhat(psi, depth)
    eigen = []
    for lam in base.eigen:
        total = ONE
        power = ONE
        for _ in range(n - 1):
            power = power * lam
            total = total + power
        eigen.append(total)
    return DiagOp(eigen)


@dataclass(frozen=True)
class OpWeightVector:
    """Entries w_i = sum_k a[i][k] * base^k, all polynomials in one shared base.

    Sharing the base makes every entry commute with every other, so the
    weighted-coefficient sums over them are well defined operators.
    """

    base: DiagOp
    coeffs: tuple[tuple[Scalar, ...], ...]

    def __len__(self) -> int:
        return len(self.coeffs)

    def prefix(self, n: int) -> "OpWeightVector":
        return OpWeightVector(self.base, self.coeffs[:n])

    def entry_eigenvalue(self, i: int, m: int) -> Scalar:
        """Eigenvalue of entry i (1-indexed) on x^m, by Horner in the base's."""
        lam = self.base.eigen[m]
        acc = ZERO
        for a in reversed(self.coeffs[i - 1]):
            acc = acc * lam + a
        return acc

    def entry_op(self, i: int) -> DiagOp:
        """Entry i realized as an operator."""
        return DiagOp([self.entry_eigenvalue(i, m) for m in range(self.base.depth + 1)])

    def scalar_weights(self, m: int) -> WeightVector:
        """The plain weight vector seen by the monomial x^m."""
        return WeightVector(tuple(self.entry_eigenvalue(i, m) for i in range(1, len(self.coeffs) + 1)))


def qhat_power_entries(base: DiagOp, n: int) -> OpWeightVector:
    """Entries (1, base, base^2, ..., base^(n-1))."""
    return OpWeightVector(base, tuple((ZERO,) * i + (ONE,) for i in range(n)))


def n_qhat_entries(base: DiagOp, n: int) -> OpWeightVector:
    """Entries (1_base, 2_base, ..., n_base): i-th is 1 + base + ... + base^(i-1)."""
    return OpWeightVector(base, tuple((ONE,) * i for i in range(1, n + 1)))


def _konkwa(ow: OpWeightVector, k: int, value_fn) -> DiagOp:
    """Per-monomial scalar evaluation of an operator-valued coefficient.

    The weights seen by x^m are polynomials in ``base.eigen[m]`` alone, so the
    per-call cache is keyed on that eigenvalue: ``scalar_weights(m)`` and the
    recurrence run once per distinct base eigenvalue, not once per monomial.
    """
    cache: dict[Scalar, Scalar] = {}
    eigen = []
    for m, lam in enumerate(ow.base.eigen):
        value = cache.get(lam)
        if value is None:
            value = cache[lam] = value_fn(ow.scalar_weights(m), k)
        eigen.append(value)
    return DiagOp(eigen)


def konkwa_first_kind(ow: OpWeightVector, k: int) -> DiagOp:
    """Operator-valued first-kind coefficient over operator weights."""
    return _konkwa(ow, k, konvalina.first_kind)


def konkwa_second_kind(ow: OpWeightVector, k: int) -> DiagOp:
    """Operator-valued second-kind coefficient over operator weights."""
    return _konkwa(ow, k, konvalina.second_kind)


# -- the three named operator arrays -----------------------------------------

def binomial_operator(psi: PsiSequence, n: int, k: int, depth: int) -> DiagOp:
    """Operator-valued binomial array entry."""
    check_triangle(n, k)
    entries = qhat_power_entries(qhat(psi, depth), n - k + 1)
    return konkwa_second_kind(entries, k)


def stirling2_operator(psi: PsiSequence, n: int, k: int, depth: int) -> DiagOp:
    """Operator-valued Stirling array of the second kind."""
    check_triangle(n, k)
    entries = n_qhat_entries(qhat(psi, depth), k)
    return konkwa_second_kind(entries, n - k)


def stirling1_operator(psi: PsiSequence, n: int, k: int, depth: int) -> DiagOp:
    """Operator-valued Stirling array of the first kind."""
    check_triangle(n, k)
    entries = n_qhat_entries(qhat(psi, depth), max(n - 1, 0))
    return konkwa_first_kind(entries, n - k)


OPERATOR_ARRAYS: dict[str, Callable[[PsiSequence, int, int, int], DiagOp]] = {
    "binom": binomial_operator,
    "stirling1": stirling1_operator,
    "stirling2": stirling2_operator,
}
