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

pascal, stirling2 and gauss additionally carry a triad spec whose
coefficient triangle must reproduce the same values; stirling1 satisfies
the first-kind two-term recurrence but no triad produces its triangle, so
asking for its triad raises :class:`NotATriadError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .konvalina import binomial, q_binomial
from .psi import get_psi
from .psi_extensions import psi_stirling_first, psi_stirling_second
from .scalar import Scalar
from .triad import SuiteResult, TriadSpec, coefficient_table, gauss_spec, pascal_spec, stirling2_spec


class NotATriadError(ValueError):
    """The family has no dual polynomial sequence / triad presentation."""


@dataclass(frozen=True)
class Family:
    name: str
    value_fn: Callable[[int, int], Scalar]
    triad_builder: Callable[[], TriadSpec] | None

    def value(self, n: int, k: int) -> Scalar:
        if not 0 <= k <= n:
            raise IndexError(f"(n, k) = ({n}, {k}) outside the triangle 0 <= k <= n")
        return self.value_fn(n, k)

    def triad(self) -> TriadSpec:
        if self.triad_builder is None:
            raise NotATriadError(f"family {self.name!r} has no triad presentation")
        return self.triad_builder()


FAMILIES: dict[str, Family] = {
    "pascal": Family("pascal", binomial, pascal_spec),
    "stirling2": Family("stirling2", lambda n, k: psi_stirling_second(get_psi("classical"), n, k), stirling2_spec),
    "stirling1": Family("stirling1", lambda n, k: psi_stirling_first(get_psi("classical"), n, k), None),
    "gauss": Family("gauss", q_binomial, gauss_spec),
}


def get_family(name: str) -> Family:
    if name not in FAMILIES:
        raise ValueError(f"unknown family {name!r}; expected one of {sorted(FAMILIES)}")
    return FAMILIES[name]


def family_value(name: str | Family, n: int, k: int) -> Scalar:
    family = get_family(name) if isinstance(name, str) else name
    return family.value(n, k)


def family_table(name: str | Family, rows: int) -> list[list[Scalar]]:
    family = get_family(name) if isinstance(name, str) else name
    return [[family.value(n, k) for k in range(n + 1)] for n in range(rows + 1)]


def cross_check(name: str | Family, rows: int) -> SuiteResult:
    """Compare the family's triad triangle entrywise with its weighted mapping.

    One FAIL line per mismatching (n, k); one PASS line if there is none.
    """
    family = get_family(name) if isinstance(name, str) else name
    spec = family.triad()
    table = coefficient_table(spec, rows)
    report = SuiteResult(f"cross-check {family.name}")
    for n in range(rows + 1):
        for k in range(n + 1):
            lhs = table.entry(n, k)
            rhs = family.value(n, k)
            if lhs != rhs:
                report.check(False, f"(n={n}, k={k}): triad {lhs} != weighted {rhs}")
    if not report.lines:
        report.check(True, f"triad agrees with weighted form, n <= {rows}")
    return report
