"""Batch verification suites behind ``triad verify --suite``.

Each suite runs a family of exact identity checks and returns a
:class:`~triads.triad.SuiteResult` (the package's one report type) whose
lines are deterministic for a given seed, so repeated runs are
byte-identical.  ``SUITE_RUNNERS`` maps each suite name to its runner
and is the one place a suite is registered; ``--suite all`` runs them
all and is the CI gate.

Wherever a suite compares two routes, the routes are independent: tables
against definitional enumeration, operator eigenvalues against scalar
arrays, scalar arrays against classical integer recurrences and
``math.comb``.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import lru_cache
from typing import Callable

from . import konvalina
from .families import cross_check, family_value
from .genfun import check_stirling1_polynomial, check_stirling2_series
from .konvalina import (
    WeightVector,
    first_kind_oracle,
    first_kind_table,
    ones,
    qpowers,
    second_kind_oracle,
    second_kind_table,
    second_kind_triangle,
)
from .operators import (
    binomial_operator,
    konkwa_first_kind,
    konkwa_second_kind,
    n_qhat_entries,
    qhat,
    qhat_power_entries,
    stirling1_operator,
    stirling2_operator,
)
from .psi import get_psi
from .psi_extensions import psi_stirling_first, psi_stirling_second
from .scalar import ZERO, as_scalar, q_factorial, qpow
from .triad import BUILTIN_SPECS, SuiteResult, coefficient_table, gauss_spec, verify_connection, verify_degrees

DEFAULT_SEED = 7


# -- independent integer references ------------------------------------------

@lru_cache(maxsize=None)
def _int_stirling2(n: int, k: int) -> int:
    if n == 0 and k == 0:
        return 1
    if n == 0 or k == 0 or k > n:
        return 0
    return k * _int_stirling2(n - 1, k) + _int_stirling2(n - 1, k - 1)


@lru_cache(maxsize=None)
def _int_stirling1(n: int, k: int) -> int:
    if n == 0 and k == 0:
        return 1
    if n == 0 or k == 0 or k > n:
        return 0
    return (n - 1) * _int_stirling1(n - 1, k) + _int_stirling1(n - 1, k - 1)


def _q_binomial_by_factorials(n: int, k: int):
    # independent of the weighted-selection route
    return q_factorial(n) / (q_factorial(k) * q_factorial(n - k))


def _random_weights(rng: random.Random, max_len: int, low: int = -5, high: int = 5) -> WeightVector:
    length = rng.randint(1, max_len)
    return WeightVector.of([rng.randint(low, high) for _ in range(length)])


# -- suites -------------------------------------------------------------------

def suite_triad(rows: int = 25) -> SuiteResult:
    """Connection identity and degree check for the three builtin specs."""
    result = SuiteResult("triad")
    for name in ("pascal", "stirling2", "gauss"):
        spec = BUILTIN_SPECS[name]()
        report = verify_connection(spec, rows)
        result.check(report.ok, f"connection {name}: x^n recovered for n <= {rows}")
        result.check(verify_degrees(spec, rows), f"degrees {name}: deg phi_k = k for k <= {rows}")
    return result


def suite_konvalina_oracle(count: int = 200, max_len: int = 8, seed: int = DEFAULT_SEED) -> SuiteResult:
    """Recurrence tables against definitional enumeration on random vectors."""
    result = SuiteResult("konvalina-oracle")
    rng = random.Random(seed)
    first_ok = second_ok = triangle_ok = True
    for _ in range(count):
        w = _random_weights(rng, max_len)
        n = len(w)
        ct = first_kind_table(w, n)
        for m in range(n + 1):
            prefix = w.prefix(m)
            for k in range(m + 1):
                if ct[m][k] != first_kind_oracle(prefix, k):
                    first_ok = False
        st = second_kind_table(w, n, n)
        for m in range(n + 1):
            prefix = w.prefix(m)
            for k in range(n + 1):
                if st[m][k] != second_kind_oracle(prefix, k):
                    second_ok = False
        for k in range(n + 1):
            head = w.prefix(k)
            for balls in range(n + 1):
                if second_kind_triangle(w, k + balls, k) != second_kind_oracle(head, balls):
                    triangle_ok = False
    result.check(first_ok, f"first-kind table == enumeration, {count} random vectors (len <= {max_len})")
    result.check(second_ok, f"second-kind table == enumeration, {count} random vectors")
    result.check(triangle_ok, f"triangle reindexing == enumeration, {count} random vectors")
    return result


def suite_propositions(count: int = 100, seed: int = DEFAULT_SEED) -> SuiteResult:
    """Last-box decomposition and split identities, random and symbolic."""
    result = SuiteResult("propositions")
    rng = random.Random(seed)
    last_ok = split_ok = True
    for _ in range(count):
        w = _random_weights(rng, 8)
        for k in range(len(w) + 2):
            last_ok = last_ok and konvalina.last_box_identity(w, k, "first")
            last_ok = last_ok and konvalina.last_box_identity(w, k, "second")
        for split in range(len(w) + 1):
            for k in range(len(w) + 1):
                split_ok = split_ok and konvalina.split_identity(w, split, k)
    result.check(last_ok, f"last-box decomposition, both kinds, {count} random vectors")
    result.check(split_ok, f"split identity, both kinds, {count} random vectors")

    wq = qpowers(5)
    sym_ok = True
    for k in range(7):
        sym_ok = sym_ok and konvalina.last_box_identity(wq, k, "first")
        sym_ok = sym_ok and konvalina.last_box_identity(wq, k, "second")
        for split in range(len(wq) + 1):
            sym_ok = sym_ok and konvalina.split_identity(wq, split, k)
    result.check(sym_ok, "last-box and split identities on (1, q, q^2, q^3, q^4)")

    cauchy_ok = True
    for total in range(13):
        w = ones(total)
        for split in range(total + 1):
            for k in range(total + 1):
                cauchy_ok = cauchy_ok and konvalina.split_identity(w, split, k)
        for k in range(total + 1):
            cauchy_ok = cauchy_ok and konvalina.first_kind(w, k) == as_scalar(math.comb(total, k))
    result.check(cauchy_ok, "Cauchy identity on unit weights, n+m <= 12 (anchored to math.comb)")
    return result


def suite_corollary(limit: int = 12) -> SuiteResult:
    """Summation identities recovered from the last-box decomposition.

    Checked for all n, k <= limit:

      1. hockey stick:        binom(n+k+1, k+1) = sum_i binom(k+i, k)
      2. column sum:          binom(n+1, k+1)   = sum_i binom(i, k)
      3. q-hockey stick:      qbinom(n+k+1, k+1) = sum_i q^i * qbinom(k+i, k)

    Two further variants sometimes listed alongside these are excluded: as
    commonly printed they equate mismatched quantities and admit no
    consistent reading, so there is nothing well-formed to verify.
    """
    result = SuiteResult("corollary")
    top = 2 * limit + 2
    bins = first_kind_table(ones(top), top)
    # q-Pascal: c[n+1][k] = c[n][k-1] + q^k c[n][k]; independent of the second_kind route
    qbins = coefficient_table(gauss_spec(), top).rows

    def at(table, n, k):
        return table[n][k] if 0 <= k <= n else ZERO

    ok1 = ok2 = ok3 = True
    for n in range(limit + 1):
        for k in range(limit + 1):
            partial = ZERO
            partial_q = ZERO
            for i in range(n + 1):
                partial = partial + at(bins, k + i, k)
                partial_q = partial_q + qpow(i) * at(qbins, k + i, k)
            ok1 = ok1 and at(bins, n + k + 1, k + 1) == partial
            ok3 = ok3 and at(qbins, n + k + 1, k + 1) == partial_q
            column = ZERO
            for i in range(k, n + 1):
                column = column + at(bins, i, k)
            ok2 = ok2 and at(bins, n + 1, k + 1) == column
    result.check(ok1, f"hockey stick, n,k <= {limit}")
    result.check(ok2, f"column sum, n,k <= {limit}")
    result.check(ok3, f"q-hockey stick (symbolic q), n,k <= {limit}")
    result.check(True, "note: two ill-formed printed variants excluded (no consistent reading)")
    return result


def suite_families(rows: int = 12) -> SuiteResult:
    """Family mappings against enumeration, classical references, and triads."""
    result = SuiteResult("families")
    pascal_ok = stirling2_ok = stirling1_ok = gauss_ok = gauss_q1_ok = True
    for n in range(rows + 1):
        for k in range(n + 1):
            pascal_ok = pascal_ok and family_value("pascal", n, k) == first_kind_oracle(ones(n), k)
            pascal_ok = pascal_ok and family_value("pascal", n, k) == as_scalar(math.comb(n, k))
            stirling2_ok = stirling2_ok and family_value("stirling2", n, k) == second_kind_oracle(
                konvalina.naturals(k), n - k
            )
            stirling2_ok = stirling2_ok and family_value("stirling2", n, k) == as_scalar(_int_stirling2(n, k))
            stirling1_ok = stirling1_ok and family_value("stirling1", n, k) == first_kind_oracle(
                konvalina.naturals(max(n - 1, 0)), n - k
            )
            stirling1_ok = stirling1_ok and family_value("stirling1", n, k) == as_scalar(_int_stirling1(n, k))
            gval = family_value("gauss", n, k)
            gauss_ok = gauss_ok and gval == second_kind_oracle(qpowers(n - k + 1), k)
            gauss_ok = gauss_ok and gval == _q_binomial_by_factorials(n, k)
            gauss_q1_ok = gauss_q1_ok and gval.eval_q(1) == Fraction(math.comb(n, k))
    result.check(pascal_ok, f"pascal == unit-weight enumeration == math.comb, n <= {rows}")
    result.check(stirling2_ok, f"stirling2 == enumeration == integer recurrence, n <= {rows}")
    result.check(stirling1_ok, f"stirling1 == enumeration == integer recurrence, n <= {rows}")
    result.check(gauss_ok, f"gauss == enumeration == factorial formula, n <= {rows}")
    result.check(gauss_q1_ok, f"gauss at q=1 == pascal entrywise, n <= {rows}")
    for name in ("pascal", "stirling2", "gauss"):
        result.check(cross_check(name, rows).ok, f"triad triangle == weighted mapping ({name}), n <= {rows}")
    return result


def suite_operator(limit: int = 10, depth: int = 12) -> SuiteResult:
    """Operator arrays against scalar q-arrays, classical arrays, and shapes."""
    result = SuiteResult("operator")
    qf = get_psi("qfact")

    diag_ok = qarray_ok = classical_ok = True
    for n in range(limit + 1):
        for k in range(n + 1):
            checks = (
                (binomial_operator(qf, n, k, depth), _q_binomial_by_factorials(n, k), math.comb(n, k)),
                (stirling2_operator(qf, n, k, depth), psi_stirling_second(qf, n, k), _int_stirling2(n, k)),
                (stirling1_operator(qf, n, k, depth), psi_stirling_first(qf, n, k), _int_stirling1(n, k)),
            )
            for op, q_value, classical in checks:
                diag_ok = diag_ok and all(v == op.eigen[0] for v in op.eigen)
                qarray_ok = qarray_ok and all(v == q_value for v in op.eigen)
                classical_ok = classical_ok and op.eigen[0].eval_q(1) == Fraction(classical)
    result.check(diag_ok, f"arrays act as scalar multiplication on every x^m, m <= {depth}")
    result.check(qarray_ok, f"qfact arrays equal the q-arrays entrywise, n,k <= {limit}")
    result.check(classical_ok, f"arrays at q=1 equal the classical arrays, n,k <= {limit}")

    shape_ok = True
    for psi_name, top in (("qfact", limit), ("fibonacci", 6)):
        base = qhat(get_psi(psi_name), depth)
        for entries_of in (n_qhat_entries, qhat_power_entries):
            full = entries_of(base, top)
            for n in range(1, top + 1):
                ow = full.prefix(n)
                shorter = full.prefix(n - 1)
                wn = full.entry_op(n)
                for k in range(1, top + 1):
                    lhs_c = konkwa_first_kind(ow, k)
                    rhs_c = konkwa_first_kind(shorter, k) + wn * konkwa_first_kind(shorter, k - 1)
                    shape_ok = shape_ok and lhs_c == rhs_c
                    lhs_s = konkwa_second_kind(ow, k)
                    rhs_s = konkwa_second_kind(shorter, k) + wn * konkwa_second_kind(ow, k - 1)
                    shape_ok = shape_ok and lhs_s == rhs_s
    result.check(shape_ok, f"two-term recurrence shapes hold as eigenvalue identities, n,k <= {limit}")
    return result


_GENFUN_K_MAX = 6
_PSI_DEFAULTS = ("classical", "qfact", "fibonacci")


def suite_genfun(
    order: int = 20,
    k_max: int = _GENFUN_K_MAX,
    n_max: int = 12,
    psi_names: tuple[str, ...] = _PSI_DEFAULTS,
) -> SuiteResult:
    """Generating-function identities for the deformed Stirling triangles."""
    result = SuiteResult("genfun")
    for name in psi_names:
        psi = get_psi(name)
        series_ok = all(check_stirling2_series(psi, k, order) for k in range(k_max + 1))
        result.check(series_ok, f"second-kind column series ({name}), k <= {k_max}, order {order}")
        poly_ok = all(check_stirling1_polynomial(psi, n) for n in range(1, n_max + 1))
        result.check(poly_ok, f"first-kind row polynomial ({name}), n <= {n_max}")
    return result


def _run_genfun(order: int | None, psi: str | None, **_) -> SuiteResult:
    return suite_genfun(20 if order is None else order, psi_names=_PSI_DEFAULTS if psi is None else (psi,))


# Each runner takes the options seed, rows, order and psi by keyword and
# ignores the ones its suite has no use for.
SUITE_RUNNERS: dict[str, Callable[..., SuiteResult]] = {
    "triad": lambda rows, **_: suite_triad(25 if rows is None else rows),
    "konvalina-oracle": lambda seed, **_: suite_konvalina_oracle(seed=seed),
    "propositions": lambda seed, **_: suite_propositions(seed=seed),
    "corollary": lambda rows, **_: suite_corollary(12 if rows is None else rows),
    "families": lambda rows, **_: suite_families(12 if rows is None else rows),
    "operator": lambda **_: suite_operator(),
    "genfun": _run_genfun,
}

SUITE_NAMES = tuple(SUITE_RUNNERS)


def run_suites(
    names: list[str],
    seed: int = DEFAULT_SEED,
    rows: int | None = None,
    order: int | None = None,
    psi: str | None = None,
) -> list[SuiteResult]:
    # every argument is checked before the first suite runs
    for name in names:
        if name not in SUITE_RUNNERS:
            raise ValueError(f"unknown suite {name!r}; expected one of {SUITE_NAMES + ('all',)}")
    if "genfun" in names and order is not None and order < _GENFUN_K_MAX:
        raise ValueError(f"--order must be at least {_GENFUN_K_MAX} for the genfun suite, got {order}")
    return [SUITE_RUNNERS[name](seed=seed, rows=rows, order=order, psi=psi) for name in names]
