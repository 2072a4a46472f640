"""Named families against enumeration oracles and their triads."""

import pytest

from triads.families import FAMILIES, cross_check, family_table, family_value
from triads.konvalina import first_kind_oracle, naturals
from triads.scalar import ONE, ZERO, as_scalar, parse_scalar
from triads.triad import BUILTIN_SPECS

from .oracles import (
    bell_numbers,
    int_stirling1,
    q_binomial_by_factorials,
    stirling1_by_enumeration,
    stirling2_by_enumeration,
    subset_count,
)


def test_stirling1_value_matches_cycle_enumeration():
    assert family_value("stirling1", 4, 2) == as_scalar(11)
    assert family_value("stirling1", 4, 2) == first_kind_oracle(naturals(3), 2)
    for n in range(7):
        for k in range(n + 1):
            assert family_value("stirling1", n, k) == as_scalar(stirling1_by_enumeration(n, k))


def test_stirling2_value_matches_partition_enumeration():
    for n in range(8):
        for k in range(n + 1):
            assert family_value("stirling2", n, k) == as_scalar(stirling2_by_enumeration(n, k))


def test_pascal_matches_subset_enumeration():
    for n in range(9):
        for k in range(n + 1):
            assert family_value("pascal", n, k) == as_scalar(subset_count(n, k))
    assert family_value("pascal", 12, 0) == ONE


def test_gauss_values():
    assert family_value("gauss", 4, 2) == parse_scalar("1 + q + 2*q^2 + q^3 + q^4")
    for n in range(10):
        for k in range(n + 1):
            assert family_value("gauss", n, k) == q_binomial_by_factorials(n, k)


def test_outside_triangle_raises():
    for name in FAMILIES:
        with pytest.raises(IndexError):
            family_value(name, 3, 4)
        with pytest.raises(IndexError):
            family_value(name, 2, -1)


def test_cross_checks_pass_at_depth_twelve():
    assert cross_check("pascal", 12).ok
    assert cross_check("stirling2", 10).ok
    assert cross_check("gauss", 12).ok


def test_cross_check_names_the_mismatching_entry(monkeypatch):
    assert cross_check("pascal", 4).render() == ["PASS cross-check pascal: triad agrees with weighted form, n <= 4"]
    pascal = FAMILIES["pascal"]

    def perturbed(rows):
        table = pascal(rows)
        table[3][1] = table[3][1] + ONE
        return table

    monkeypatch.setitem(FAMILIES, "pascal", perturbed)
    report = cross_check("pascal", 4)
    assert not report.ok
    assert report.render() == ["FAIL cross-check pascal: (n=3, k=1): triad 3 != weighted 4"]


def test_stirling1_is_not_a_triad():
    # a family without a builtin spec of its name is refused, by a plain ValueError that names it
    with pytest.raises(ValueError, match="family 'stirling1' has no triad presentation") as info:
        cross_check("stirling1", 4)
    assert type(info.value) is ValueError
    assert "stirling1" not in BUILTIN_SPECS
    for name in ("pascal", "stirling2", "gauss"):
        assert BUILTIN_SPECS[name]().name == name


def test_stirling1_recurrence():
    # int_stirling1 is the two-term recurrence [n k] = (n-1)[n-1 k] + [n-1 k-1]
    for n in range(11):
        for k in range(n + 1):
            assert family_value("stirling1", n, k) == as_scalar(int_stirling1(n, k))
    assert family_value("stirling1", 0, 0) == ONE
    assert family_value("stirling1", 3, 0) == ZERO


def test_gauss_at_q_one_is_pascal():
    for n in range(13):
        for k in range(n + 1):
            assert as_scalar(family_value("gauss", n, k).eval_q(1)) == family_value("pascal", n, k)


def test_stirling2_row_sums_are_bell_numbers():
    bells = bell_numbers(10)
    for n in range(11):
        row_sum = sum((family_value("stirling2", n, k) for k in range(n + 1)), ZERO)
        assert row_sum == as_scalar(bells[n])


def test_family_table_shape():
    rows = family_table("pascal", 4)
    assert [len(r) for r in rows] == [1, 2, 3, 4, 5]
    assert rows[4] == [as_scalar(v) for v in (1, 4, 6, 4, 1)]


def test_unknown_family():
    with pytest.raises(ValueError, match="unknown family 'catalan'"):
        family_value("catalan", 1, 0)
    with pytest.raises(ValueError, match="unknown family 'catalan'"):
        family_table("catalan", 2)
    with pytest.raises(ValueError, match="unknown family 'catalan'"):
        cross_check("catalan", 2)
