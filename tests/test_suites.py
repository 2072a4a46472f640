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
    # qhat(qfact) every monomial sees the same vector: the three array tables
    # and the four qfact shape tables take one pass each.  Over qhat(fibonacci)
    # both shape entry vectors see 11 distinct vectors, once per kind.
    fib = operators.qhat(get_psi("fibonacci"), 12)
    distinct = [
        len({full.scalar_weights(m) for m in range(fib.depth + 1)})
        for full in (operators.n_qhat_entries(fib, 6), operators.qhat_power_entries(fib, 6))
    ]
    assert distinct == [11, 11]
    assert per_table == [1] * 7 + [11] * 4
    # the scalar q-array references are two more passes, one psi_stirling_table per kind
    assert len(passes) == sum(per_table) + 2


def test_oracle_suite_enumerates_each_second_kind_value_once(monkeypatch):
    rng = random.Random(7)
    expected = sum((len(suites._random_weights(rng)) + 1) ** 2 for _ in range(200))
    calls = _counting(monkeypatch, suites, "second_kind_oracle")
    assert suites.suite_konvalina_oracle(seed=7).ok
    assert len(calls) == expected == 6841


def _failed_by(fault, run):
    """Texts of the lines of ``run()`` that PASS as the suite stands and FAIL once ``fault()`` is applied."""
    before = {text: ok for ok, text in run().lines}
    assert all(before.values())
    fault()
    after = {text: ok for ok, text in run().lines}
    assert after.keys() == before.keys()
    return {text for text, ok in after.items() if not ok}


def _doubled_at(real, witness):
    """``real`` with its value doubled when its last two arguments are ``witness``."""

    def perturbed(*args):
        value = real(*args)
        return value + value if args[-2:] == witness else value

    return perturbed


def test_triangle_fault_fails_only_the_triangle_line(monkeypatch):
    fault = _doubled_at(suites.second_kind_triangle, (3, 1))
    failed = _failed_by(lambda: monkeypatch.setattr(suites, "second_kind_triangle", fault), suites.suite_konvalina_oracle)
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
    fault = _doubled_at(families.FAMILIES["stirling2"], (5, 2))
    failed = _failed_by(lambda: monkeypatch.setitem(families.FAMILIES, "stirling2", fault), suites.suite_families)
    # the triad cross-check compares the triad triangle with the same family value
    assert failed == {
        "stirling2 == enumeration == integer recurrence, n <= 12",
        "triad triangle == weighted mapping (stirling2), n <= 12",
    }
