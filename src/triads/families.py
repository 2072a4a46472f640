"""Named coefficient families and their cross-checks.

A family is a kind, a weight vector and a reindexing.  Its table is one
last-box pass, and ``family_value`` reads the same table:

  pascal      binom(n, k)  = first_kind_table(ones(rows), rows)[n][k]:
                             first kind, k from n unit weights
  stirling2   {n k}        = psi_stirling_table(classical, rows, "second"):
                             second kind, n-k balls over weights (1..k)
  stirling1   [n k]        = psi_stirling_table(classical, rows, "first"):
                             first kind, n-k from weights (1..n-1)
  gauss       binom(n,k)_q = second_kind_table(qpowers(rows+1), rows, rows+1)[n-k+1][k]:
                             second kind, k balls over (1, q, .., q^(n-k))

A family's triad is the builtin spec of the same name in
``triad.BUILTIN_SPECS``, whose coefficient triangle must reproduce the
same values; stirling1 satisfies the first-kind two-term recurrence but
no triad produces its triangle, so asking for its triad raises
:class:`NotATriadError`.
"""

from __future__ import annotations

from typing import Callable

from .konvalina import check_triangle, first_kind_table, ones, qpowers, second_kind_table
from .psi import get_psi
from .psi_extensions import psi_stirling_table
from .scalar import Scalar
from .triad import BUILTIN_SPECS, SuiteResult, TriadSpec, coefficient_table


class NotATriadError(ValueError):
    """The family has no dual polynomial sequence / triad presentation."""


def _gauss_table(rows: int) -> list[list[Scalar]]:
    states = second_kind_table(qpowers(rows + 1), rows, rows + 1)
    return [[states[n - k + 1][k] for k in range(n + 1)] for n in range(rows + 1)]


# rows n = 0..rows of each family's triangle, from one pass
FAMILIES: dict[str, Callable[[int], list[list[Scalar]]]] = {
    "pascal": lambda rows: first_kind_table(ones(rows), rows),
    "stirling2": lambda rows: psi_stirling_table(get_psi("classical"), rows, "second"),
    "stirling1": lambda rows: psi_stirling_table(get_psi("classical"), rows, "first"),
    "gauss": _gauss_table,
}


def _table_fn(name: str) -> Callable[[int], list[list[Scalar]]]:
    if name not in FAMILIES:
        raise ValueError(f"unknown family {name!r}; expected one of {sorted(FAMILIES)}")
    return FAMILIES[name]


def family_value(name: str, n: int, k: int) -> Scalar:
    table = _table_fn(name)
    check_triangle(n, k)
    return table(n)[n][k]


def family_table(name: str, rows: int) -> list[list[Scalar]]:
    return _table_fn(name)(rows)


def family_triad(name: str) -> TriadSpec:
    """The builtin triad spec that presents the family."""
    _table_fn(name)  # refuses a name that is no family
    if name not in BUILTIN_SPECS:
        raise NotATriadError(f"family {name!r} has no triad presentation")
    return BUILTIN_SPECS[name]()


def cross_check(name: str, rows: int) -> SuiteResult:
    """Compare the family's triad triangle entrywise with its weighted mapping.

    One FAIL line per mismatching (n, k); one PASS line if there is none.
    """
    table = coefficient_table(family_triad(name), rows)
    values = family_table(name, rows)
    report = SuiteResult(f"cross-check {name}")
    for n in range(rows + 1):
        for k in range(n + 1):
            lhs = table.entry(n, k)
            rhs = values[n][k]
            if lhs != rhs:
                report.check(False, f"(n={n}, k={k}): triad {lhs} != weighted {rhs}")
    if not report.lines:
        report.check(True, f"triad agrees with weighted form, n <= {rows}")
    return report
