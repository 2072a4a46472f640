"""Batch verification suites behind ``triad verify --suite``.

Each suite runs a family of exact identity checks and returns a
:class:`~triads.triad.SuiteResult` (the package's one report type) whose
lines are deterministic for a given seed, so repeated runs are
byte-identical.  ``SUITE_RUNNERS`` maps each suite name to its suite
function and the verify options that function reads, and is the one
place a suite is registered; ``--suite all`` runs them all and is the
CI gate.

Wherever a suite compares two routes, the routes are independent: tables
against definitional enumeration, operator eigenvalues against scalar
arrays, scalar arrays against classical integer recurrences and
``math.comb``.  Each compared value is computed once and checked against
every reference it meets.  The enumeration is read as a table: one
``oracle_table`` call per weight vector and kind gives the value at every
k over every prefix of the vector, and the tables' entries are compared
with it cell by cell.  The reference values are cached where they repeat
across suites.  A suite's parameters are exactly the verify
options it reads; every other size is a constant stated once, in the
suite body.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import lru_cache
from typing import Callable

from . import konvalina
from .families import FAMILIES, cross_check, family_table
from .genfun import check_stirling1_polynomial, check_stirling2_series
from .konvalina import (
    WeightVector,
    first_kind_table,
    last_box_table,
    naturals,
    ones,
    oracle_table,
    qpowers,
    second_kind_triangle_table,
)
from .operators import konkwa_table, n_qhat_entries, qhat, qhat_power_entries
from .psi import get_psi
from .psi_extensions import psi_stirling_table
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


@lru_cache(maxsize=None)
def _q_binomial_by_factorials(n: int, k: int):
    # independent of the weighted-selection route
    return q_factorial(n) / (q_factorial(k) * q_factorial(n - k))


_RANDOM_LEN_MAX = 8


def _random_weights(rng: random.Random) -> WeightVector:
    length = rng.randint(1, _RANDOM_LEN_MAX)
    return WeightVector.of([rng.randint(-5, 5) for _ in range(length)])


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


def suite_konvalina_oracle(seed: int = DEFAULT_SEED) -> SuiteResult:
    """Recurrence tables against definitional enumeration on random vectors."""
    result = SuiteResult("konvalina-oracle")
    count = 200
    rng = random.Random(seed)
    first_ok = second_ok = triangle_ok = True
    for _ in range(count):
        w = _random_weights(rng)
        n = len(w)
        ct = first_kind_table(w, n)
        st = last_box_table(w, n, "second")
        # entry [m + k][m] is the second kind k over the first m boxes
        tri = second_kind_triangle_table(w, 2 * n)
        # one enumeration per kind gives the value at every k over every prefix
        first = oracle_table(w, n, "first")
        second = oracle_table(w, n, "second")
        for m in range(n + 1):
            for k in range(n + 1):
                if k <= m and ct[m][k] != first[m][k]:
                    first_ok = False
                # each second-kind value against the table and the triangle
                if st[m][k] != second[m][k]:
                    second_ok = False
                if tri[m + k][m] != second[m][k]:
                    triangle_ok = False
    result.check(first_ok, f"first-kind table == enumeration, {count} random vectors (len <= {_RANDOM_LEN_MAX})")
    result.check(second_ok, f"second-kind table == enumeration, {count} random vectors")
    result.check(triangle_ok, f"triangle reindexing == enumeration, {count} random vectors")
    return result


def suite_propositions(seed: int = DEFAULT_SEED) -> SuiteResult:
    """Last-box decomposition and split identities, random and symbolic."""
    result = SuiteResult("propositions")
    count = 100
    rng = random.Random(seed)
    last_ok = split_ok = True
    # each identity call checks every k' <= k from shared passes
    for _ in range(count):
        w = _random_weights(rng)
        last_ok = last_ok and konvalina.last_box_identity(w, len(w) + 1, "first")
        last_ok = last_ok and konvalina.last_box_identity(w, len(w) + 1, "second")
        for split in range(len(w) + 1):
            split_ok = split_ok and konvalina.split_identity(w, split, len(w))
    result.check(last_ok, f"last-box decomposition, both kinds, {count} random vectors")
    result.check(split_ok, f"split identity, both kinds, {count} random vectors")

    wq = qpowers(5)
    sym_ok = konvalina.last_box_identity(wq, 6, "first") and konvalina.last_box_identity(wq, 6, "second")
    for split in range(len(wq) + 1):
        sym_ok = sym_ok and konvalina.split_identity(wq, split, 6)
    result.check(sym_ok, "last-box and split identities on (1, q, q^2, q^3, q^4)")

    cauchy_ok = True
    for total in range(13):
        w = ones(total)
        for split in range(total + 1):
            cauchy_ok = cauchy_ok and konvalina.split_identity(w, split, total)
        for k in range(total + 1):
            cauchy_ok = cauchy_ok and konvalina.first_kind(w, k) == as_scalar(math.comb(total, k))
    result.check(cauchy_ok, "Cauchy identity on unit weights, n+m <= 12 (anchored to math.comb)")
    return result


def suite_corollary(rows: int = 12) -> SuiteResult:
    """Summation identities recovered from the last-box decomposition.

    Checked for all n, k <= rows:

      1. hockey stick:        binom(n+k+1, k+1) = sum_i binom(k+i, k)
      2. column sum:          binom(n+1, k+1)   = sum_i binom(i, k)
      3. q-hockey stick:      qbinom(n+k+1, k+1) = sum_i q^i * qbinom(k+i, k)

    Two further variants sometimes listed alongside these are excluded: as
    commonly printed they equate mismatched quantities and admit no
    consistent reading, so there is nothing well-formed to verify.
    """
    result = SuiteResult("corollary")
    top = 2 * rows + 2
    bins = first_kind_table(ones(top), top)
    # q-Pascal: c[n+1][k] = c[n][k-1] + q^k c[n][k]; independent of the second_kind route
    qbins = coefficient_table(gauss_spec(), top).rows

    def at(table, n, k):
        return table[n][k] if 0 <= k <= n else ZERO

    ok1 = ok2 = ok3 = True
    for n in range(rows + 1):
        for k in range(rows + 1):
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
    result.check(ok1, f"hockey stick, n,k <= {rows}")
    result.check(ok2, f"column sum, n,k <= {rows}")
    result.check(ok3, f"q-hockey stick (symbolic q), n,k <= {rows}")
    result.check(True, "note: two ill-formed printed variants excluded (no consistent reading)")
    return result


def suite_families(rows: int = 12) -> SuiteResult:
    """Family mappings against enumeration, classical references, and triads."""
    result = SuiteResult("families")
    pascal_ok = stirling2_ok = stirling1_ok = gauss_ok = gauss_q1_ok = True
    tables = {name: family_table(name, rows) for name in FAMILIES}
    # pascal and stirling1 read every column from one enumeration over one
    # vector; stirling2 and gauss take one per column c (c = n - k, or c = k),
    # each over the shorter vector whose prefix the entry (n, k) reads
    pascal = oracle_table(ones(rows), rows, "first")
    stirling1 = oracle_table(naturals(max(rows - 1, 0)), rows, "first")
    stirling2 = [oracle_table(naturals(rows - c), c, "second") for c in range(rows + 1)]
    gauss = [oracle_table(qpowers(rows - c + 1), c, "second") for c in range(rows + 1)]
    for n in range(rows + 1):
        for k in range(n + 1):
            pval = tables["pascal"][n][k]
            pascal_ok = pascal_ok and pval == pascal[n][k]
            pascal_ok = pascal_ok and pval == as_scalar(math.comb(n, k))
            s2val = tables["stirling2"][n][k]
            stirling2_ok = stirling2_ok and s2val == stirling2[n - k][k][n - k]
            stirling2_ok = stirling2_ok and s2val == as_scalar(_int_stirling2(n, k))
            s1val = tables["stirling1"][n][k]
            stirling1_ok = stirling1_ok and s1val == stirling1[max(n - 1, 0)][n - k]
            stirling1_ok = stirling1_ok and s1val == as_scalar(_int_stirling1(n, k))
            gval = tables["gauss"][n][k]
            gauss_ok = gauss_ok and gval == gauss[k][n - k + 1][k]
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


def suite_operator() -> SuiteResult:
    """Operator arrays against scalar q-arrays, classical arrays, and shapes."""
    result = SuiteResult("operator")
    limit, depth = 10, 12
    qf = get_psi("qfact")
    qf_base = qhat(qf, depth)

    # each array is one table of a kind over its entries, read by the array's reindexing
    binom = konkwa_table(qhat_power_entries(qf_base, limit + 1), limit, "second")
    stirling2 = konkwa_table(n_qhat_entries(qf_base, limit), limit, "second")
    stirling1 = konkwa_table(n_qhat_entries(qf_base, limit - 1), limit, "first")
    # the scalar q-arrays they are checked against: one pass per kind
    q_stirling2 = psi_stirling_table(qf, limit, "second")
    q_stirling1 = psi_stirling_table(qf, limit, "first")
    diag_ok = qarray_ok = classical_ok = True
    for n in range(limit + 1):
        for k in range(n + 1):
            checks = (
                (binom[n - k + 1][k], _q_binomial_by_factorials(n, k), math.comb(n, k)),
                (stirling2[k][n - k], q_stirling2[n][k], _int_stirling2(n, k)),
                (stirling1[max(n - 1, 0)][n - k], q_stirling1[n][k], _int_stirling1(n, k)),
            )
            for op, q_value, classical in checks:
                diag_ok = diag_ok and all(v == op.eigen[0] for v in op.eigen)
                qarray_ok = qarray_ok and all(v == q_value for v in op.eigen)
                classical_ok = classical_ok and op.eigen[0].eval_q(1) == Fraction(classical)
    result.check(diag_ok, f"arrays act as scalar multiplication on every x^m, m <= {depth}")
    result.check(qarray_ok, f"qfact arrays equal the q-arrays entrywise, n,k <= {limit}")
    result.check(classical_ok, f"arrays at q=1 equal the classical arrays, n,k <= {limit}")

    shape_ok = True
    for base, top in ((qf_base, limit), (qhat(get_psi("fibonacci"), depth), 6)):
        for entries_of in (n_qhat_entries, qhat_power_entries):
            full = entries_of(base, top)
            # c[n][k] and s[n][k]: both kinds over the first n entries
            c, s = konkwa_table(full, top, "first"), konkwa_table(full, top, "second")
            for n in range(1, top + 1):
                wn = full.entries[n - 1]
                for k in range(1, top + 1):
                    shape_ok = shape_ok and c[n][k] == c[n - 1][k] + wn * c[n - 1][k - 1]
                    shape_ok = shape_ok and s[n][k] == s[n - 1][k] + wn * s[n][k - 1]
    result.check(shape_ok, f"two-term recurrence shapes hold as eigenvalue identities, n,k <= {limit}")
    return result


_GENFUN_K_MAX = 6
_PSI_DEFAULTS = ("classical", "qfact", "fibonacci")


def suite_genfun(order: int = 20, psi: str | None = None) -> SuiteResult:
    """Generating-function identities for the deformed Stirling triangles.

    ``psi`` restricts the checks to one sequence; by default all three run.
    """
    result = SuiteResult("genfun")
    n_max = 12
    for name in _PSI_DEFAULTS if psi is None else (psi,):
        sequence = get_psi(name)
        series_ok = all(check_stirling2_series(sequence, k, order) for k in range(_GENFUN_K_MAX + 1))
        result.check(series_ok, f"second-kind column series ({name}), k <= {_GENFUN_K_MAX}, order {order}")
        poly_ok = all(check_stirling1_polynomial(sequence, n) for n in range(1, n_max + 1))
        result.check(poly_ok, f"first-kind row polynomial ({name}), n <= {n_max}")
    return result


# Each entry is a suite and the verify options it reads, by the names of
# its parameters.  run_suites passes only the options that were set, so
# every default is the one in the suite's signature.
SUITE_RUNNERS: dict[str, tuple[Callable[..., SuiteResult], tuple[str, ...]]] = {
    "triad": (suite_triad, ("rows",)),
    "konvalina-oracle": (suite_konvalina_oracle, ("seed",)),
    "propositions": (suite_propositions, ("seed",)),
    "corollary": (suite_corollary, ("rows",)),
    "families": (suite_families, ("rows",)),
    "operator": (suite_operator, ()),
    "genfun": (suite_genfun, ("order", "psi")),
}

SUITE_NAMES = tuple(SUITE_RUNNERS)


def run_suites(
    names: list[str],
    seed: int | None = None,
    rows: int | None = None,
    order: int | None = None,
    psi: str | None = None,
) -> list[SuiteResult]:
    # every argument is checked before the first suite runs
    for name in names:
        if name not in SUITE_RUNNERS:
            raise ValueError(f"unknown suite {name!r}; expected one of {SUITE_NAMES + ('all',)}")
    runners = [SUITE_RUNNERS[name] for name in names]
    options = dict(seed=seed, rows=rows, order=order, psi=psi)
    options = {key: value for key, value in options.items() if value is not None}
    # --seed is not refused: the benchmark's smoke size runs
    # "verify --suite families --seed S", and CI runs that smoke test
    for key in ("rows", "order", "psi"):
        if key in options and not any(key in reads for _, reads in runners):
            readers = ", ".join(name for name, (_, reads) in SUITE_RUNNERS.items() if key in reads)
            raise ValueError(f"--{key} is read by none of the selected suites (only by {readers})")
    if order is not None and order < _GENFUN_K_MAX:
        raise ValueError(f"--order must be at least {_GENFUN_K_MAX} for the genfun suite, got {order}")
    return [suite(**{key: options[key] for key in reads if key in options}) for suite, reads in runners]
