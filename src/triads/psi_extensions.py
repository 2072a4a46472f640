"""Weighted coefficients whose box weights are deformed integers.

Drawing the weight vector from {n_psi} turns the first/second-kind
machinery into deformed Stirling triangles: with the canonical choice
(1_psi, 2_psi, ..., n_psi),

  [n k]_psi = first kind, n-k indices from (1_psi .. (n-1)_psi)
  {n k}_psi = second kind, n-k indices from (1_psi .. k_psi)

Under the qfact sequence these are the q-Stirling numbers; under the
classical sequence, and at q = 1, the classical ones, which is where
``families`` reads its stirling1/stirling2 values.  A whole triangle is
one last-box pass, :func:`psi_stirling_table`.
"""

from __future__ import annotations

from .konvalina import WeightVector, last_box_table
from .psi import PsiSequence, n_psi
from .scalar import Scalar


def psi_weights(psi: PsiSequence, n: int) -> WeightVector:
    """The canonical vector (1_psi, 2_psi, ..., n_psi)."""
    return WeightVector(tuple(n_psi(psi, j) for j in range(1, n + 1)))


def psi_stirling_table(psi: PsiSequence, rows: int, kind: str) -> list[list[Scalar]]:
    """Rows n = 0..rows of the deformed Stirling triangle of the kind, from one last-box pass.

    Entry [n][k], k <= n, is [n k]_psi for kind "first": the first kind
    n-k over (1_psi .. (n-1)_psi), state [max(n-1, 0)][n-k] of the pass over
    (1_psi .. (rows-1)_psi); and {n k}_psi for kind "second": the second kind
    n-k over (1_psi .. k_psi), state [k][n-k] of the pass over
    (1_psi .. rows_psi).
    """
    if kind == "first":
        states = last_box_table(psi_weights(psi, rows - 1), rows, kind)
        return [[states[max(n - 1, 0)][n - k] for k in range(n + 1)] for n in range(rows + 1)]
    states = last_box_table(psi_weights(psi, rows), rows, kind)
    return [[states[k][n - k] for k in range(n + 1)] for n in range(rows + 1)]
