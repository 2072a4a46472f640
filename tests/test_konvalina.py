"""Weighted binomial coefficients: oracles, recurrences, and identities."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from triads import konvalina
from triads.konvalina import (
    WeightVector,
    _last_box_rows,
    _last_row,
    _ring,
    binomial,
    first_kind,
    first_kind_oracle,
    first_kind_table,
    last_box_identity,
    naturals,
    ones,
    q_binomial,
    qpowers,
    second_kind,
    second_kind_oracle,
    second_kind_table,
    second_kind_triangle,
    split_identity,
)
from triads.scalar import ONE, Q, ZERO, as_scalar, parse_scalar, qpow
from triads.suites import suite_corollary

from .oracles import newton_complete, newton_elementary, q_binomial_by_factorials


def test_first_kind_oracle_frozen_values():
    assert first_kind_oracle(WeightVector.of([2, 3, 5]), 2) == as_scalar(31)
    assert first_kind_oracle(qpowers(3), 3) == qpow(3)
    assert first_kind_oracle(WeightVector.of([7, -2]), 0) == ONE
    assert first_kind_oracle(ones(3), 5) == ZERO


def test_second_kind_oracle_frozen_values():
    assert second_kind_oracle(WeightVector.of([2, 3]), 2) == as_scalar(19)
    assert second_kind_oracle(qpowers(3), 2) == parse_scalar("1 + q + 2*q^2 + q^3 + q^4")
    assert second_kind_oracle(WeightVector.of([]), 1) == ZERO
    assert second_kind_oracle(WeightVector.of([]), 0) == ONE


def test_first_kind_table_rows():
    assert first_kind_table(ones(4), 4)[4] == [as_scalar(v) for v in (1, 4, 6, 4, 1)]
    assert first_kind_table(naturals(3), 3)[3] == [as_scalar(v) for v in (1, 6, 11, 6)]
    assert first_kind_table(ones(0), 0) == [[ONE]]
    with pytest.raises(ValueError):
        first_kind_table(ones(2), 3)
    with pytest.raises(ValueError):
        first_kind_table(ones(2), -1)


def test_second_kind_table_values():
    table = second_kind_table(WeightVector.of([1, 2]), 2, 2)
    assert table[2][2] == as_scalar(7)
    assert all(row[0] == ONE for row in table)
    assert second_kind_table(WeightVector.of([ONE, Q]), 1, 2)[2][1] == ONE + Q
    assert second_kind_table(ones(2), 0, 0) == [[ONE]]
    for k_max, n_max in ((-1, 2), (2, -1)):
        with pytest.raises(ValueError):
            second_kind_table(ones(2), k_max, n_max)


def test_triangle_reindexing_matches_substitution():
    rng = random.Random(11)
    for _ in range(25):
        w = WeightVector.of([rng.randint(-4, 4) for _ in range(rng.randint(1, 8))])
        for k in range(len(w) + 1):
            for n in range(k, 9):
                assert second_kind_triangle(w, n, k) == second_kind_oracle(w.prefix(k), n - k)


def test_triangle_boundary():
    w = naturals(5)
    assert second_kind_triangle(w, 0, 0) == ONE
    assert second_kind_triangle(w, 4, 0) == ZERO  # column 0 vanishes past row 0
    assert second_kind_triangle(w, 0, 3) == ZERO
    assert all(second_kind_triangle(w, n, n) == ONE for n in range(6))
    with pytest.raises(IndexError):
        second_kind_triangle(w, 7, 6)


def test_symmetric_function_semantics_via_newton():
    vectors = [naturals(5), qpowers(4), WeightVector.of([2, -1, 3, 5, -2, 4])]
    for w in vectors:
        values = list(w.weights)
        for k in range(len(w) + 1):
            assert first_kind(w, k) == newton_elementary(values, k)
            assert second_kind(w, k) == newton_complete(values, k)


def test_permutation_invariance():
    rng = random.Random(5)
    base = [rng.randint(-5, 5) for _ in range(6)]
    shuffled = base[:]
    rng.shuffle(shuffled)
    for k in range(7):
        assert first_kind(WeightVector.of(base), k) == first_kind(WeightVector.of(shuffled), k)
        assert second_kind(WeightVector.of(base), k) == second_kind(WeightVector.of(shuffled), k)


def test_last_box_identity_examples():
    assert last_box_identity(ones(5), 3, "first")
    assert last_box_identity(naturals(4), 2, "second")
    assert last_box_identity(ones(4), 0, "first")  # vacuous
    assert last_box_identity(ones(4), 0, "third")
    assert last_box_identity(ones(4), -1, "first") and last_box_identity(ones(4), -1, "second")
    assert last_box_identity(ones(2), 3, "first") and last_box_identity(WeightVector.of([]), 2, "second")
    for k in (1, -1):
        with pytest.raises(ValueError):
            last_box_identity(ones(3), k, "third")


def test_split_identity_examples():
    assert split_identity(qpowers(4), 2, 2)
    assert split_identity(ones(6), 3, 0)
    for total in range(8):
        for split in range(total + 1):
            for k in range(total + 1):
                assert split_identity(ones(total), split, k)
    with pytest.raises(ValueError):
        split_identity(ones(3), 4, 1)


@settings(deadline=None, max_examples=60)
@given(st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=7), st.integers(0, 7))
def test_identities_on_random_integer_vectors(values, k):
    w = WeightVector.of(values)
    assert last_box_identity(w, k, "first")
    assert last_box_identity(w, k, "second")
    assert split_identity(w, len(values) // 2, k)


@settings(deadline=None, max_examples=20)
@given(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=5), st.integers(0, 5))
def test_identities_on_random_q_power_vectors(exponents, k):
    w = WeightVector.of([qpow(e) for e in exponents])
    assert last_box_identity(w, k, "first")
    assert last_box_identity(w, k, "second")
    assert split_identity(w, 1, k)


def test_oracle_equals_recurrence_on_symbolic_weights():
    w = WeightVector.of([ONE + Q, Q**2, as_scalar(Fraction(1, 2)) * Q, ONE - Q])
    for k in range(5):
        assert first_kind_oracle(w, k) == first_kind(w, k)
        assert second_kind_oracle(w, k) == second_kind(w, k)


weight_values = st.one_of(
    st.integers(min_value=-4, max_value=4),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.builds(lambda c, e: as_scalar(c) * qpow(e), st.integers(-3, 3), st.integers(0, 3)),
    st.builds(lambda a, b: (ONE + Q * a) / (Q - b), st.integers(-2, 2), st.integers(2, 3)),
)


@settings(deadline=None, max_examples=80)
@given(st.lists(weight_values, max_size=5), st.integers(0, 7))
def test_recurrence_rows_match_enumeration(values, k):
    w = WeightVector.of(values)
    values, zero, one = _ring(w)
    for kind, oracle in (("first", first_kind_oracle), ("second", second_kind_oracle)):
        row = _last_row(values, k, kind, zero, one)
        assert [as_scalar(v) for v in row] == [oracle(w, j) for j in range(k + 1)]
    n = len(w)
    first_rows, second_rows = first_kind_table(w, n), second_kind_table(w, k, n)
    for m in range(n + 1):
        prefix = w.prefix(m)
        assert first_rows[m] == [first_kind_oracle(prefix, j) for j in range(m + 1)]
        assert second_rows[m] == [second_kind_oracle(prefix, j) for j in range(k + 1)]
    assert last_box_identity(w, k, "first")
    assert last_box_identity(w, k, "second")


def _states(values, k, kind, zero, one):
    return [dp[:] for dp in _last_box_rows(values, k, kind, zero, one)]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_native_ring_matches_scalar_ring_on_constant_vectors(seed):
    rng = random.Random(seed)
    for _ in range(30):
        length = rng.randint(0, 7)
        w = WeightVector.of(
            [rng.choice([rng.randint(-5, 5), Fraction(rng.randint(-6, 6), rng.randint(1, 4))]) for _ in range(length)]
        )
        values, zero, one = _ring(w)
        assert (zero, one) == (0, 1) and values == w.constant_values()
        for k in range(length + 2):
            for kind in ("first", "second"):
                native = _states(values, k, kind, zero, one)
                over_scalars = _states(list(w.weights), k, kind, ZERO, ONE)
                assert [[as_scalar(v) for v in dp] for dp in native] == over_scalars


def test_integral_results_come_back_as_int_coefficients():
    half = WeightVector.of([Fraction(1, 2), Fraction(1, 2)])
    values = (
        first_kind(half, 1),
        second_kind(half, 1),
        first_kind_table(half, 2)[2][1],
        second_kind_table(half, 1, 2)[2][1],
        second_kind_triangle(half, 3, 2),
    )
    for value in values:
        assert value.num.coeffs == (1,) and type(value.num.coeffs[0]) is int


def test_mixed_constant_and_symbolic_vector_matches_oracles():
    w = WeightVector.of([Fraction(1, 2), Q, 3, ONE + Q, Fraction(-2, 3)])
    assert _ring(w)[1:] == (ZERO, ONE)
    for k in range(len(w) + 2):
        assert first_kind(w, k) == first_kind_oracle(w, k)
        assert second_kind(w, k) == second_kind_oracle(w, k)
        assert last_box_identity(w, k, "first") and last_box_identity(w, k, "second")
        assert all(split_identity(w, split, k) for split in range(len(w) + 1))
    table = second_kind_table(w, 3, len(w))
    for m in range(len(w) + 1):
        assert first_kind_table(w, len(w))[m] == [first_kind_oracle(w.prefix(m), j) for j in range(m + 1)]
        assert table[m] == [second_kind_oracle(w.prefix(m), j) for j in range(4)]


@pytest.mark.parametrize(
    "w", [WeightVector.of([2, -1, 3, 5]), WeightVector.of([Fraction(1, 2), 3, Fraction(-2, 3), 1]), qpowers(4)]
)
def test_identities_fail_on_a_perturbed_row(monkeypatch, w):
    # Perturb only the last state of the pass that gives the lhs: the full
    # vector at column count k.  Both identities must then report False.
    n, k = len(w), 2
    real = konvalina._last_box_rows

    def perturbed(values, cols, kind, zero, one):
        for i, dp in enumerate(real(values, cols, kind, zero, one)):
            if (i, len(values), cols) == (n, n, k):
                dp = dp[:]
                dp[k] = dp[k] + one
            yield dp

    assert last_box_identity(w, k, "first") and last_box_identity(w, k, "second") and split_identity(w, 2, k)
    monkeypatch.setattr(konvalina, "_last_box_rows", perturbed)
    assert not last_box_identity(w, k, "first")
    assert not last_box_identity(w, k, "second")
    assert not split_identity(w, 2, k)


def test_binomial_and_q_binomial_helpers():
    assert binomial(5, 2) == as_scalar(10)
    assert binomial(3, 7) == ZERO
    assert q_binomial(4, 2) == q_binomial_by_factorials(4, 2)
    for n in range(9):
        for k in range(n + 1):
            assert q_binomial(n, k) == q_binomial_by_factorials(n, k)


def test_hockey_stick_instance():
    # binom(5,2) = 10 = 1 + 2 + 3 + 4
    total = ZERO
    for i in range(4):
        total = total + binomial(1 + i, 1)
    assert binomial(5, 2) == total


def test_classical_identity_suite_passes():
    report = suite_corollary(8)
    assert report.ok
    assert any("excluded" in text for _, text in report.lines)


def test_q_hockey_stick_needs_q_weights():
    # the unweighted sum differs symbolically; the q-weighted one agrees
    n = k = 1
    unweighted = q_binomial(k, k) + q_binomial(k + 1, k)
    weighted = q_binomial(k, k) + qpow(1) * q_binomial(k + 1, k)
    assert q_binomial(n + k + 1, k + 1) != unweighted
    assert q_binomial(n + k + 1, k + 1) == weighted


def test_weight_rules_materialize_to_closed_forms():
    assert qpowers(4).weights == (ONE, Q, Q**2, Q**3)
    assert naturals(3).weights == (ONE, as_scalar(2), as_scalar(3))
    assert ones(2).weights == (ONE, ONE)
    assert len(qpowers(0)) == 0


def test_weight_vector_access():
    w = WeightVector.of([4, 5, 6])
    assert w.w(1) == as_scalar(4)
    assert w.tail(1).weights == (as_scalar(5), as_scalar(6))
    assert w.prefix(2).weights == (as_scalar(4), as_scalar(5))
    with pytest.raises(IndexError):
        w.w(0)
    with pytest.raises(IndexError):
        w.w(4)
    assert w.constant_values() == [4, 5, 6]
    assert WeightVector.of([Q]).constant_values() is None
