"""Weighted coefficients whose box weights are deformed integers.

Drawing the weight vector from {n_psi} turns the first/second-kind
machinery into deformed Stirling triangles: with the canonical choice
(1_psi, 2_psi, ..., n_psi),

  [n k]_psi = first kind, n-k indices from (1_psi .. (n-1)_psi)
  {n k}_psi = second kind, n-k indices from (1_psi .. k_psi)

Under the qfact sequence these are the q-Stirling numbers; under the
classical sequence, and at q = 1, the classical ones, which is where
``families`` reads its stirling1/stirling2 values.  ``comtet_transform``
converts between the two common q-conventions by the q^(k choose 2)
factor.
"""

from __future__ import annotations

from .konvalina import WeightVector, check_triangle, first_kind, last_box_table, second_kind
from .psi import PsiSequence, n_psi
from .scalar import Scalar, qpow


def psi_weights(psi: PsiSequence, n: int) -> WeightVector:
    """The canonical vector (1_psi, 2_psi, ..., n_psi)."""
    return WeightVector(tuple(n_psi(psi, j) for j in range(1, n + 1)))


def psi_stirling_first(psi: PsiSequence, n: int, k: int) -> Scalar:
    """Deformed Stirling triangle of the first kind."""
    check_triangle(n, k)
    return first_kind(psi_weights(psi, n - 1), n - k)


def psi_stirling_second(psi: PsiSequence, n: int, k: int) -> Scalar:
    """Deformed Stirling triangle of the second kind."""
    check_triangle(n, k)
    return second_kind(psi_weights(psi, k), n - k)


def psi_stirling_table(psi: PsiSequence, rows: int, kind: str) -> list[list[Scalar]]:
    """Rows n = 0..rows of the deformed Stirling triangle of the kind, from one last-box pass.

    Entry [n][k], k <= n, is psi_stirling_first(psi, n, k) for kind "first":
    state [max(n-1, 0)][n-k] of the pass over (1_psi .. (rows-1)_psi); and
    psi_stirling_second(psi, n, k) for kind "second": state [k][n-k] of the
    pass over (1_psi .. rows_psi).
    """
    if kind == "first":
        states = last_box_table(psi_weights(psi, rows - 1), rows, kind)
        return [[states[max(n - 1, 0)][n - k] for k in range(n + 1)] for n in range(rows + 1)]
    states = last_box_table(psi_weights(psi, rows), rows, kind)
    return [[states[k][n - k] for k in range(n + 1)] for n in range(rows + 1)]


def comtet_transform(k: int, value: Scalar) -> Scalar:
    """Multiply by q^(k choose 2), mapping between the two q-Stirling conventions."""
    if k < 0:
        raise ValueError("comtet_transform expects k >= 0")
    return value * qpow(k * (k - 1) // 2)
