"""Named coefficient families and their cross-checks.

Each family value is the one weighted-selection definition it names,
imported rather than restated:

  pascal      binom(n, k)  = konvalina.binomial: first kind, k from unit weights
  stirling2   {n k}        = psi_stirling_second under the classical psi:
                             second kind, n-k balls over weights (1..k)
  stirling1   [n k]        = psi_stirling_first under the classical psi:
                             first kind, n-k from weights (1..n-1)
  gauss       binom(n,k)_q = konvalina.q_binomial: second kind, k balls
                             over (1, q, .., q^(n-k))

A family's triad is the builtin spec of the same name in
``triad.BUILTIN_SPECS``, whose coefficient triangle must reproduce the
same values; stirling1 satisfies the first-kind two-term recurrence but
no triad produces its triangle, so asking for its triad raises
:class:`NotATriadError`.
"""

from __future__ import annotations

from typing import Callable

from .konvalina import binomial, check_triangle, q_binomial
from .psi import get_psi
from .psi_extensions import psi_stirling_first, psi_stirling_second
from .scalar import Scalar
from .triad import BUILTIN_SPECS, SuiteResult, TriadSpec, coefficient_table


class NotATriadError(ValueError):
    """The family has no dual polynomial sequence / triad presentation."""


FAMILIES: dict[str, Callable[[int, int], Scalar]] = {
    "pascal": binomial,
    "stirling2": lambda n, k: psi_stirling_second(get_psi("classical"), n, k),
    "stirling1": lambda n, k: psi_stirling_first(get_psi("classical"), n, k),
    "gauss": q_binomial,
}


def _value_fn(name: str) -> Callable[[int, int], Scalar]:
    if name not in FAMILIES:
        raise ValueError(f"unknown family {name!r}; expected one of {sorted(FAMILIES)}")
    return FAMILIES[name]


def family_value(name: str, n: int, k: int) -> Scalar:
    value = _value_fn(name)
    check_triangle(n, k)
    return value(n, k)


def family_table(name: str, rows: int) -> list[list[Scalar]]:
    value = _value_fn(name)
    return [[value(n, k) for k in range(n + 1)] for n in range(rows + 1)]


def family_triad(name: str) -> TriadSpec:
    """The builtin triad spec that presents the family."""
    _value_fn(name)  # refuses a name that is no family
    if name not in BUILTIN_SPECS:
        raise NotATriadError(f"family {name!r} has no triad presentation")
    return BUILTIN_SPECS[name]()


def cross_check(name: str, rows: int) -> SuiteResult:
    """Compare the family's triad triangle entrywise with its weighted mapping.

    One FAIL line per mismatching (n, k); one PASS line if there is none.
    """
    table = coefficient_table(family_triad(name), rows)
    report = SuiteResult(f"cross-check {name}")
    for n in range(rows + 1):
        for k in range(n + 1):
            lhs = table.entry(n, k)
            rhs = family_value(name, n, k)
            if lhs != rhs:
                report.check(False, f"(n={n}, k={k}): triad {lhs} != weighted {rhs}")
    if not report.lines:
        report.check(True, f"triad agrees with weighted form, n <= {rows}")
    return report
