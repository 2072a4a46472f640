"""Acceptance gate: one test per criterion, exact equality throughout.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
pass lines; every comparison is symbolic with zero tolerance.
"""

import time
from fractions import Fraction

from triads import cli
from triads.families import family_value
from triads.konvalina import first_kind_oracle, naturals, ones, qpowers, second_kind_oracle
from triads.scalar import as_scalar
from triads.suites import (
    suite_corollary,
    suite_genfun,
    suite_konvalina_oracle,
    suite_operator,
    suite_propositions,
)
from triads.triad import BUILTIN_SPECS, verify_connection

from .oracles import int_stirling1, int_stirling2, subset_count


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")
    assert ok, detail


def test_criterion_1_triad_duality():
    start = time.perf_counter()
    ok = True
    for name in ("pascal", "stirling2", "gauss"):
        ok = ok and verify_connection(BUILTIN_SPECS[name](), 25).ok
    elapsed = time.perf_counter() - start
    _report(1, ok and elapsed < 10.0, f"connection identity, three specs, n <= 25 in {elapsed:.2f}s")


def test_criterion_2_oracle_equivalence():
    result = suite_konvalina_oracle(seed=7)
    _report(2, result.ok, "tables == enumeration and triangle == reindexed values, 200 vectors")


def test_criterion_3_propositions():
    result = suite_propositions(seed=7)
    _report(3, result.ok, "decomposition/split identities, 100 random + symbolic vectors")


def test_criterion_4_classical_identities():
    result = suite_corollary(12)
    documented = any("excluded" in text for _, text in result.lines)
    _report(4, result.ok and documented, "items 1, 2, 5 for n,k <= 12; items 3-4 documented excluded")


def test_criterion_5_family_mappings():
    ok = True
    for n in range(13):
        for k in range(n + 1):
            ok = ok and family_value("pascal", n, k) == first_kind_oracle(ones(n), k)
            ok = ok and family_value("pascal", n, k) == as_scalar(subset_count(n, k))
            ok = ok and family_value("stirling2", n, k) == second_kind_oracle(naturals(k), n - k)
            ok = ok and family_value("stirling2", n, k) == as_scalar(int_stirling2(n, k))
            ok = ok and family_value("stirling1", n, k) == first_kind_oracle(naturals(max(n - 1, 0)), n - k)
            ok = ok and family_value("stirling1", n, k) == as_scalar(int_stirling1(n, k))
            gauss = family_value("gauss", n, k)
            ok = ok and gauss == second_kind_oracle(qpowers(n - k + 1), k)
            ok = ok and gauss.eval_q(1) == Fraction(subset_count(n, k))
    _report(5, ok, "four family mappings == enumeration for n <= 12; gauss at q=1 == pascal")


def test_criterion_6_operator_tower():
    result = suite_operator()
    _report(6, result.ok, "operator arrays act as q-array/classical multiplication; shapes hold")


def test_criterion_7_generating_functions():
    result = suite_genfun(order=20)
    _report(7, result.ok, "column series to order 20 (k <= 6) and row polynomials (n <= 12), three sequences")


def test_criterion_8_deterministic_gate(capsys):
    start = time.perf_counter()
    code1 = cli.main(["verify", "--suite", "all", "--seed", "7"])
    out1 = capsys.readouterr().out
    code2 = cli.main(["verify", "--suite", "all", "--seed", "7"])
    out2 = capsys.readouterr().out
    elapsed = time.perf_counter() - start
    ok = code1 == 0 and code2 == 0 and out1.encode() == out2.encode() and elapsed < 60.0
    _report(8, ok, f"suite all: exit 0, byte-identical reruns, {elapsed:.2f}s for two runs")
