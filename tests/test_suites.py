"""The verify suites: what each one reads, how often it computes, what a fault turns to FAIL."""

import inspect
import random

import pytest

from triads import families, konvalina, operators, suites
from triads.psi import get_psi
from triads.suites import SUITE_NAMES, SUITE_RUNNERS


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_suite_parameters_are_the_options_it_reads(name):
    suite, reads = SUITE_RUNNERS[name]
    assert set(inspect.signature(suite).parameters) == set(reads)


def _counting(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_operator_suite_computes_each_konkwa_value_once(monkeypatch):
    passes = _counting(monkeypatch, konvalina, "_last_box_rows")
    per_table = []
    real = suites.konkwa_table

    def counted(ow, k_max, kind):
        before = len(passes)
        table = real(ow, k_max, kind)
        per_table.append(len(passes) - before)
        return table

    monkeypatch.setattr(suites, "konkwa_table", counted)
    assert suites.suite_operator().ok
    # One last-box pass per distinct eigenvalue vector per table.  Over
    # qhat(qfact) every monomial sees the same vector of int q-polynomials:
    # the three array tables and the four qfact shape tables take one pass
    # over its l1 norms, which sizes the packed slot, and one over its
    # values.  Over qhat(fibonacci) both shape entry vectors see 11 distinct
    # vectors of constants, once per kind.
    fib = operators.qhat(get_psi("fibonacci"), 12)
    distinct = [
        len({full.scalar_weights(m) for m in range(fib.depth + 1)})
        for full in (operators.n_qhat_entries(fib, 6), operators.qhat_power_entries(fib, 6))
    ]
    assert distinct == [11, 11]
    assert per_table == [2] * 7 + [11] * 4
    # the scalar q-array references are two psi_stirling_table calls over
    # qfact, one per kind, each a pass over the norms and one over the values
    assert len(passes) == sum(per_table) + 4


def test_oracle_suite_enumerates_each_second_kind_value_once(monkeypatch):
    # one enumeration per (vector, kind) gives the values at every k over every prefix
    rng = random.Random(7)
    vectors = [suites._random_weights(rng) for _ in range(200)]
    calls = _counting(monkeypatch, suites, "oracle_table")
    enumerations = _counting(monkeypatch, konvalina, "_enumerate")
    assert suites.suite_konvalina_oracle(seed=7).ok
    assert calls == enumerations == [(w, len(w), kind) for w in vectors for kind in ("first", "second")]
    assert len(calls) == 400


def _failed_by(fault, run):
    """Texts of the lines of ``run()`` that PASS as the suite stands and FAIL once ``fault()`` is applied."""
    before = {text: ok for ok, text in run().lines}
    assert all(before.values())
    fault()
    after = {text: ok for ok, text in run().lines}
    assert after.keys() == before.keys()
    return {text for text, ok in after.items() if not ok}


def _doubled_entry(real, n, k):
    """``real``, a table builder, with its entry [n][k] doubled in every table that has one."""

    def perturbed(*args):
        table = real(*args)
        if n < len(table) and k < len(table[n]):
            table[n][k] = table[n][k] + table[n][k]
        return table

    return perturbed


def _doubled_inner_entry(real, m, k):
    """``real``, a table with a row per prefix, with entry [m][k] doubled wherever row m is not the last."""

    def perturbed(*args):
        table = real(*args)
        if m < len(table) - 1 and k < len(table[m]):
            table[m][k] = table[m][k] + table[m][k]
        return table

    return perturbed


@pytest.mark.parametrize(
    "name, line",
    [
        ("last_box_table", "second-kind table == enumeration, 200 random vectors"),
        ("first_kind_table", "first-kind table == enumeration, 200 random vectors (len <= 8)"),
    ],
)
def test_inner_prefix_fault_fails_only_its_table_line(monkeypatch, name, line):
    # entry [1][1] is w_1, read from the first box of every vector of length >= 2
    fault = _doubled_inner_entry(getattr(suites, name), 1, 1)
    failed = _failed_by(lambda: monkeypatch.setattr(suites, name, fault), suites.suite_konvalina_oracle)
    assert failed == {line}


@pytest.mark.parametrize("rows", [0, 1, 2, 12])
def test_families_suite_keeps_its_lines(rows):
    result = suites.suite_families(rows)
    assert [text for ok, text in result.lines if ok] == [
        f"pascal == unit-weight enumeration == math.comb, n <= {rows}",
        f"stirling2 == enumeration == integer recurrence, n <= {rows}",
        f"stirling1 == enumeration == integer recurrence, n <= {rows}",
        f"gauss == enumeration == factorial formula, n <= {rows}",
        f"gauss at q=1 == pascal entrywise, n <= {rows}",
        *(f"triad triangle == weighted mapping ({name}), n <= {rows}" for name in ("pascal", "stirling2", "gauss")),
    ]


def test_triangle_fault_fails_only_the_triangle_line(monkeypatch):
    # entry [3][1] is w_1^2, read at m = 1, k = 2 from every vector of length >= 2
    fault = _doubled_entry(suites.second_kind_triangle_table, 3, 1)
    failed = _failed_by(
        lambda: monkeypatch.setattr(suites, "second_kind_triangle_table", fault), suites.suite_konvalina_oracle
    )
    assert failed == {"triangle reindexing == enumeration, 200 random vectors"}


def test_second_kind_operator_fault_fails_only_the_shape_line(monkeypatch):
    real = suites.konkwa_table
    # the second-kind shape table over the geometric sums of qhat(fibonacci)
    target = operators.n_qhat_entries(operators.qhat(get_psi("fibonacci"), 12), 6)

    def fault(ow, k_max, kind):
        table = real(ow, k_max, kind)
        if (ow, kind) == (target, "second"):
            table[2][1] = table[2][1] + table[2][1]
        return table

    failed = _failed_by(lambda: monkeypatch.setattr(suites, "konkwa_table", fault), suites.suite_operator)
    assert failed == {"two-term recurrence shapes hold as eigenvalue identities, n,k <= 10"}


def test_stirling2_family_fault_fails_only_the_lines_that_read_it(monkeypatch):
    fault = _doubled_entry(families.FAMILIES["stirling2"], 5, 2)
    failed = _failed_by(lambda: monkeypatch.setitem(families.FAMILIES, "stirling2", fault), suites.suite_families)
    # the triad cross-check compares the triad triangle with the same family value
    assert failed == {
        "stirling2 == enumeration == integer recurrence, n <= 12",
        "triad triangle == weighted mapping (stirling2), n <= 12",
    }
