"""Weighted binomial coefficients: oracles, recurrences, and identities."""

import math
import random
from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import combinations, combinations_with_replacement
from operator import mul

import pytest
from hypothesis import example, given, settings, strategies as st

from triads import konvalina
from triads.konvalina import (
    WeightVector,
    _last_box_rows,
    _last_row,
    _ring,
    first_kind,
    first_kind_oracle,
    first_kind_table,
    last_box_identity,
    last_box_row,
    last_box_table,
    naturals,
    ones,
    oracle_table,
    qpowers,
    second_kind,
    second_kind_oracle,
    second_kind_triangle_table,
    split_identity,
)
from triads.scalar import ONE, Q, Scalar, ZERO, _evaluate, as_scalar, parse_scalar, qpow
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
    table = last_box_table(WeightVector.of([1, 2]), 2, "second")
    assert table[2][2] == as_scalar(7)  # 1*1 + 1*2 + 2*2
    assert all(row[0] == ONE for row in table)
    assert last_box_table(WeightVector.of([ONE, Q]), 1, "second")[2][1] == ONE + Q
    assert last_box_table(ones(0), 0, "second") == [[ONE]]
    with pytest.raises(ValueError):
        last_box_table(ones(2), -1, "second")


def test_triangle_reindexing_matches_substitution():
    rng = random.Random(11)
    for _ in range(25):
        w = WeightVector.of([rng.randint(-4, 4) for _ in range(rng.randint(1, 8))])
        table = second_kind_triangle_table(w, 8)
        for k in range(len(w) + 1):
            for n in range(9):
                expected = second_kind_oracle(w.prefix(k), n - k) if n >= k else ZERO
                assert table[n][k] == expected


def test_triangle_boundary():
    w = naturals(5)
    table = second_kind_triangle_table(w, 7)
    assert table[0][0] == ONE
    assert table[4][0] == ZERO  # column 0 vanishes past row 0
    assert table[0][3] == ZERO
    assert all(table[n][n] == ONE for n in range(6))
    # one column per weight: column 6 would need w_6
    assert [len(row) for row in table] == [6] * 8


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
    values, wrap = _ring(w, k)
    for kind, oracle in (("first", first_kind_oracle), ("second", second_kind_oracle)):
        row = _last_row(values, k, kind)
        assert [wrap(v) for v in row] == [oracle(w, j) for j in range(k + 1)]
    n = len(w)
    first_rows, second_rows = first_kind_table(w, n), last_box_table(w, k, "second")
    first_states = last_box_table(w, k, "first")
    for m in range(n + 1):
        prefix = w.prefix(m)
        assert first_rows[m] == [first_kind_oracle(prefix, j) for j in range(m + 1)]
        assert second_rows[m] == [second_kind_oracle(prefix, j) for j in range(k + 1)]
        assert first_states[m] == [first_kind_oracle(prefix, j) for j in range(k + 1)]
    assert last_box_identity(w, k, "first")
    assert last_box_identity(w, k, "second")


def _enumerated_per_prefix(w, k, kind):
    """The kind's value k over each prefix of w, each prefix enumerated on its own, over Scalars."""
    if k < 0:
        return [ZERO] * (len(w) + 1)
    index_tuples = combinations if kind == "first" else combinations_with_replacement
    return [
        sum((reduce(mul, t, ONE) for t in index_tuples(w.prefix(m).weights, k)), ZERO) for m in range(len(w) + 1)
    ]


def _count_products(monkeypatch):
    """Wrap the weights of ``konvalina._ring`` in factors that count the products by them, one count per ring."""
    counts = []
    real = konvalina._ring

    class Counted:
        def __init__(self, value):
            self.value = value

        def __rmul__(self, p):
            counts[-1] += 1
            return p * self.value

    def counting(w, k, kind="second"):
        values, wrap = real(w, k, kind)
        counts.append(0)
        return [Counted(v) for v in values], wrap

    monkeypatch.setattr(konvalina, "_ring", counting)
    return counts


_COLUMN_WEIGHTS = {
    "int": lambda rng: rng.randint(-5, 5),
    "fraction": lambda rng: Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
    "int-polynomial": lambda rng: (
        as_scalar(rng.randint(-3, 3)) + as_scalar(rng.choice((-2, -1, 1, 2))) * qpow(rng.randint(1, 3))
    ),
    "rational-function": lambda rng: (ONE + as_scalar(rng.randint(-2, 2)) * Q) / (Q - rng.randint(2, 3)),
}


# the per-prefix reference over rational functions grows about 7x a box: 3 s at length 5
@pytest.mark.parametrize(
    "weights, length",
    [(weights, length) for weights in _COLUMN_WEIGHTS for length in range(5 if weights == "rational-function" else 9)],
)
def test_oracle_column_matches_each_prefix_enumerated_alone(monkeypatch, weights, length):
    rng = random.Random(f"{weights}:{length}")
    w = WeightVector.of([_COLUMN_WEIGHTS[weights](rng) for _ in range(length)])
    if weights == "int-polynomial" and length:
        assert _slot_bytes(w, length + 1) is not None
    products = _count_products(monkeypatch)
    for kind, oracle in (("first", first_kind_oracle), ("second", second_kind_oracle)):
        expected = [_enumerated_per_prefix(w, k, kind) for k in range(length + 2)]
        for k_max in range(length + 2):
            del products[:]
            table = oracle_table(w, k_max, kind)
            # one enumeration, one product by a weight per index tuple of each size 1..k_max
            sizes = range(1, k_max + 1)
            tuples = [math.comb(length, j) if kind == "first" else math.comb(length + j - 1, j) for j in sizes]
            assert products == [sum(tuples)]
            assert len(table) == length + 1
            for k in range(k_max + 1):
                assert _typed([row[k] for row in table]) == _typed(expected[k])
                assert oracle(w, k) == table[-1][k]
        assert oracle(w, -1) == ZERO


class _Words:
    """A formal sum of words over the box indices, in a ring where ``*`` concatenates and so does not commute."""

    def __init__(self, counts):
        self.counts = Counter(counts)

    @staticmethod
    def of(value):
        if isinstance(value, _Words):
            return value
        # the ints 0 and 1 the cells start from: the empty sum and the empty word
        return _Words({(): value} if value else {})

    def __add__(self, other):
        return _Words(self.counts + _Words.of(other).counts)

    __radd__ = __add__

    def __mul__(self, other):
        out = Counter()
        for a, m in self.counts.items():
            for b, n in _Words.of(other).counts.items():
                out[a + b] += m * n
        return _Words(out)

    def __rmul__(self, other):
        return _Words.of(other) * self


def test_enumeration_takes_each_tuple_once_in_ascending_box_order(monkeypatch):
    # over formal words each term keeps the order of its factors: every
    # column sums each index tuple's word once, boxes ascending
    length, k_max = 5, 6
    words = [_Words({(i,): 1}) for i in range(1, length + 1)]
    monkeypatch.setattr(konvalina, "_ring", lambda w, k, kind="second": (words, lambda v: _Words.of(v).counts))
    w = ones(length)
    for kind, index_tuples in (("first", combinations), ("second", combinations_with_replacement)):
        table = oracle_table(w, k_max, kind)
        for m, row in enumerate(table):
            assert row == [Counter(index_tuples(range(1, m + 1), k)) for k in range(k_max + 1)]


def test_oracle_column_refuses_an_unknown_kind():
    with pytest.raises(ValueError, match="kind"):
        oracle_table(ones(2), 1, "third")
    with pytest.raises(ValueError, match="nonnegative"):
        oracle_table(ones(2), -1, "first")


def _constants(w):
    """The weights as plain ints and Fractions when every one is constant in q, else None."""
    if not all(s.is_rational() for s in w.weights):
        return None
    return [s.num.coeffs[0] for s in w.weights]


def _states(values, k, kind):
    return [dp[:] for dp in _last_box_rows(values, k, kind)]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_native_ring_matches_scalar_ring_on_constant_vectors(seed):
    rng = random.Random(seed)
    for _ in range(30):
        length = rng.randint(0, 7)
        w = WeightVector.of(
            [rng.choice([rng.randint(-5, 5), Fraction(rng.randint(-6, 6), rng.randint(1, 4))]) for _ in range(length)]
        )
        values, wrap = _ring(w, length + 1)
        assert wrap is as_scalar and values == _constants(w)
        for k in range(length + 2):
            for kind in ("first", "second"):
                native = _states(values, k, kind)
                over_scalars = _states(list(w.weights), k, kind)
                assert [[as_scalar(v) for v in dp] for dp in native] == [
                    [as_scalar(v) for v in dp] for dp in over_scalars
                ]


def test_integral_results_come_back_as_int_coefficients():
    half = WeightVector.of([Fraction(1, 2), Fraction(1, 2)])
    values = (
        first_kind(half, 1),
        second_kind(half, 1),
        first_kind_table(half, 2)[2][1],
        last_box_table(half, 1, "second")[2][1],
        second_kind_triangle_table(half, 3)[3][2],
    )
    for value in values:
        assert value.num.coeffs == (1,) and type(value.num.coeffs[0]) is int


def test_mixed_constant_and_symbolic_vector_matches_oracles():
    w = WeightVector.of([Fraction(1, 2), Q, 3, ONE + Q, Fraction(-2, 3)])
    assert _ring(w, len(w) + 1) == (w.weights, as_scalar)
    for k in range(len(w) + 2):
        assert first_kind(w, k) == first_kind_oracle(w, k)
        assert second_kind(w, k) == second_kind_oracle(w, k)
        assert last_box_identity(w, k, "first") and last_box_identity(w, k, "second")
        assert all(split_identity(w, split, k) for split in range(len(w) + 1))
    table = last_box_table(w, 3, "second")
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

    def perturbed(values, cols, kind):
        for i, dp in enumerate(real(values, cols, kind)):
            if (i, len(values), cols) == (n, n, k):
                dp = dp[:]
                dp[k] = dp[k] + 1
            yield dp

    assert last_box_identity(w, k, "first") and last_box_identity(w, k, "second") and split_identity(w, 2, k)
    monkeypatch.setattr(konvalina, "_last_box_rows", perturbed)
    assert not last_box_identity(w, k, "first")
    assert not last_box_identity(w, k, "second")
    assert not split_identity(w, 2, k)


def _perturb_last_state(monkeypatch, n, column):
    """Add one at ``column`` of the last state of every pass over all n weights."""
    real = konvalina._last_box_rows

    def perturbed(values, cols, kind):
        for i, dp in enumerate(real(values, cols, kind)):
            if (i, len(values)) == (n, n) and column <= cols:
                dp = dp[:]
                dp[column] = dp[column] + 1
            yield dp

    monkeypatch.setattr(konvalina, "_last_box_rows", perturbed)


@pytest.mark.parametrize("column", [1, 2, 3])
def test_identities_fail_on_a_perturbed_column_below_k(monkeypatch, column):
    # One call checks every k' <= k: a fault at any column 1..k of the value
    # over all the weights makes both identities report False.
    w, k = WeightVector.of([2, -1, 3, 5]), 3
    _perturb_last_state(monkeypatch, len(w), column)
    assert not last_box_identity(w, k, "first")
    assert not last_box_identity(w, k, "second")
    assert not split_identity(w, 2, k)


def _last_box_at(w, j, kind):
    """The last-box identity at k' = j alone, from the kind's values on prefixes."""
    if j == 0:
        return True
    value, shift = (first_kind, 0) if kind == "first" else (second_kind, 1)
    rhs = sum((w.weights[i - 1] * value(w.prefix(i - 1 + shift), j - 1) for i in range(1, len(w) + 1)), ZERO)
    return value(w, j) == rhs


def _split_at(w, split, j):
    """The split identity at k' = j alone, both kinds."""
    left, right = w.prefix(split), WeightVector(w.weights[split:])
    return all(
        value(w, j) == sum((value(left, i) * value(right, j - i) for i in range(j + 1)), ZERO)
        for value in (first_kind, second_kind)
    )


@settings(deadline=None, max_examples=80)
@given(st.lists(weight_values, max_size=5), st.integers(0, 6), st.data())
def test_identities_at_every_k_match_a_per_k_reference(values, k, data):
    # With no fault both sides hold; with one entry of the value over all the
    # weights perturbed (column -1: none), each identity call must report
    # exactly what the per-k' references report for k' = 0..k.
    w = WeightVector.of(values)
    split = data.draw(st.integers(0, len(w)), label="split")
    column = data.draw(st.integers(-1, len(w)), label="column")
    with pytest.MonkeyPatch.context() as monkeypatch:
        if column >= 0:
            _perturb_last_state(monkeypatch, len(w), column)
        for kind in ("first", "second"):
            assert last_box_identity(w, k, kind) == all(_last_box_at(w, j, kind) for j in range(k + 1))
        assert split_identity(w, split, k) == all(_split_at(w, split, j) for j in range(k + 1))


def _gaussian_table(rows):
    """[n k]_q at [n][k] for k <= n <= rows: h_k(1, q, .., q^(n-k)), state n-k+1 of one second-kind pass."""
    states = last_box_table(qpowers(rows + 1), rows, "second")
    return [[states[n - k + 1][k] for k in range(n + 1)] for n in range(rows + 1)]


def test_binomial_and_gaussian_tables_match_independent_references():
    pascal, gaussian = first_kind_table(ones(8), 8), _gaussian_table(8)
    for n in range(9):
        assert pascal[n] == [as_scalar(math.comb(n, k)) for k in range(n + 1)]
        assert gaussian[n] == [q_binomial_by_factorials(n, k) for k in range(n + 1)]
    # past the diagonal the first kind over unit weights is zero
    assert last_box_table(ones(3), 7, "first")[3][4:] == [ZERO] * 4


def test_hockey_stick_instance():
    # binom(5,2) = 10 = 1 + 2 + 3 + 4
    pascal = first_kind_table(ones(5), 5)
    total = ZERO
    for i in range(4):
        total = total + pascal[1 + i][1]
    assert pascal[5][2] == total == as_scalar(10)


def test_classical_identity_suite_passes():
    report = suite_corollary(8)
    assert report.ok
    assert any("excluded" in text for _, text in report.lines)


def test_q_hockey_stick_needs_q_weights():
    # the unweighted sum differs symbolically; the q-weighted one agrees
    n = k = 1
    gaussian = _gaussian_table(n + k + 1)
    unweighted = gaussian[k][k] + gaussian[k + 1][k]
    weighted = gaussian[k][k] + qpow(1) * gaussian[k + 1][k]
    assert gaussian[n + k + 1][k + 1] != unweighted
    assert gaussian[n + k + 1][k + 1] == weighted


def test_weight_rules_materialize_to_closed_forms():
    assert qpowers(4).weights == (ONE, Q, Q**2, Q**3)
    assert naturals(3).weights == (ONE, as_scalar(2), as_scalar(3))
    assert ones(2).weights == (ONE, ONE)
    assert len(qpowers(0)) == 0


def test_weight_vector_access():
    w = WeightVector.of([4, 5, 6])
    assert w.prefix(2).weights == (as_scalar(4), as_scalar(5))
    assert _constants(w) == [4, 5, 6] == _ring(w, 3)[0]
    assert _constants(WeightVector.of([Q])) is None


# -- the packed ring ---------------------------------------------------------

def _forced_onto_scalars(monkeypatch):
    """Run every pass, enumeration and triangle of ``konvalina`` over the Scalars themselves."""
    monkeypatch.setattr(konvalina, "_ring", lambda w, k, kind="second": (w.weights, as_scalar))


def _slot_bytes(w, k, kind="second"):
    """Bytes per slot of the packed ring that ``_ring(w, k, kind)`` picks, or None off it; w has a weight in q."""
    values, _ = _ring(w, k, kind)
    if values is w.weights:
        return None
    # 1 * factor is the packed value of the weight itself
    value, cs = next((1 * v, s.num.coeffs) for v, s in zip(values, w.weights) if not s.is_rational())
    fits = [width for width in range(1, 9) if max(map(abs, cs)) < 2 ** (8 * width - 1)]
    return next(width for width in fits if _evaluate(cs, width) == value)


def _typed(value):
    """A Scalar, or nested lists of them, with each coefficient's type beside it."""
    if isinstance(value, list):
        return [_typed(v) for v in value]
    if isinstance(value, bool):
        return value
    return [(c, type(c)) for c in value.num.coeffs], [(c, type(c)) for c in value.den.coeffs]


@pytest.mark.parametrize(
    "coeff, width",
    [
        (127, 1),
        (128, 2),
        (-128, 2),
        (2**15 - 1, 2),
        (2**15, 3),
        (2**23 - 1, 3),
        (2**23, 4),
        (2**31 - 1, 4),
        (2**31, 5),
        (-(2**31), 5),
        (2**39 - 1, 5),
        (2**39, 6),
        (2**47 - 1, 6),
        (2**47, 7),
        (2**55 - 1, 7),
        (2**55, 8),
        (2**63 - 1, 8),
        (2**63, None),
    ],
)
def test_k_zero_packs_the_weights_themselves(coeff, width):
    # at k = 0 every value read is 1 or a weight, so the slot must hold the weights
    w = WeightVector.of([as_scalar(coeff) * Q])
    assert _slot_bytes(w, 0) == width
    assert second_kind(w, 0) == ONE and first_kind(w, 0) == ONE
    assert second_kind(w, 1) == w.weights[0] == first_kind(w, 1)
    assert last_box_table(w, 0, "second") == [[ONE], [ONE]]
    assert last_box_table(w, 1, "first") == [[ONE, ZERO], [ONE, w.weights[0]]]
    assert second_kind_triangle_table(w, 0) == [[ONE, ZERO]]


def test_empty_vector_in_every_route():
    w = WeightVector.of([])
    assert first_kind(w, 0) == second_kind(w, 0) == first_kind_oracle(w, 0) == ONE
    assert first_kind(w, 2) == second_kind(w, 2) == second_kind_oracle(w, 2) == ZERO
    assert first_kind_table(w, 0) == [[ONE]]
    assert last_box_table(w, 2, "second") == [[ONE, ZERO, ZERO]]
    assert last_box_row(w, 2, "second") == [ONE, ZERO, ZERO]
    assert second_kind_triangle_table(w, 2) == [[ONE], [ZERO], [ZERO]]
    assert last_box_identity(w, 3, "first") and last_box_identity(w, 3, "second") and split_identity(w, 0, 3)


def test_mixed_constant_and_polynomial_vector_takes_the_packed_ring(monkeypatch):
    w = WeightVector.of([2, Q, -3, ONE + Q**2, 5 * Q**3 - 1])
    k = len(w) + 1
    # h_6 of the norms (2, 1, 3, 2, 6) is 243445, 18 bits: 3 bytes, where
    # comb(10, 6) * 6^6 = 9797760 (24 bits) would take 4
    assert _slot_bytes(w, k) == 3
    packed = _everything(w, k)
    _forced_onto_scalars(monkeypatch)
    assert _typed(packed) == _typed(_everything(w, k))


def _everything(w, k):
    """Every value, table, oracle, triangle and identity of the module over w at k."""
    n = len(w)
    out = [[first_kind(w, j) for j in range(-1, k + 2)], [second_kind(w, j) for j in range(-1, k + 2)]]
    out += [first_kind_oracle(w, k), second_kind_oracle(w, k)]
    out += [oracle_table(w, k, kind) for kind in ("first", "second")]
    out += [first_kind_table(w, n)]
    out += [last_box_table(w, k, kind) for kind in ("first", "second")]
    out += [last_box_row(w, k, kind) for kind in ("first", "second")]
    out += [second_kind_triangle_table(w, k)]
    out += [last_box_identity(w, k, kind) for kind in ("first", "second")]
    out += [split_identity(w, split, k) for split in range(n + 1)]
    return out


int_polynomials = st.integers(0, 40).flatmap(
    lambda bits: st.lists(st.integers(-(2**bits), 2**bits), min_size=1, max_size=7)
).map(lambda cs: sum((as_scalar(c) * qpow(e) for e, c in enumerate(cs)), ZERO))



def _square_edges(width):
    """[c*q] at k = 2 has the bound c^2: the largest c whose square fits ``width`` bytes, and the next."""
    c = math.isqrt(2 ** (8 * width - 1) - 1)
    return [([c * Q], width), ([(c + 1) * Q], width + 1 if width < 8 else None)]


# vectors at k = 2 with the slot width they take: mixed ones, and one on
# each side of every byte boundary up to a slot of 8 bytes
_WIDTH_CASES = [
    ([ONE, Q], 1),
    ([as_scalar(30), Q], 2),
    ([2**10 * Q], 3),
    ([as_scalar(2**20), Q + 1], 6),
    ([2**40 * Q, 2**40 + Q], None),
    # h_2 of the norms (166, 27) is 2^15 - 1, the most a 2-byte slot holds,
    # where comb(3, 2) * 166^2 = 82668 would take 3; norms (166, 28) give
    # 32988, one byte more
    ([166 * Q, as_scalar(27)], 2),
    ([166 * Q, 1 + 27 * Q], 3),
    *(case for width in range(1, 9) for case in _square_edges(width)),
]


def test_slot_width_follows_the_bound():
    for weights, width in _WIDTH_CASES:
        assert _slot_bytes(WeightVector(tuple(weights)), 2) == width


@pytest.mark.parametrize("n, width", [(9, 1), (10, 2)])
def test_first_kind_slot_holds_the_central_binomial(monkeypatch, n, width):
    # e_j(q, .., q) = comb(n, j) q^j, so the first kind's bound comb(n, n // 2)
    # is reached: 126 fits a byte at n = 9, 252 needs two at n = 10
    w = WeightVector((Q,) * n)
    assert _slot_bytes(w, n, "first") == width

    def first_kind_values():
        values = [first_kind_table(w, n), last_box_table(w, n, "first"), last_box_row(w, n, "first")]
        return values + [[first_kind(w, j) for j in range(n + 1)], last_box_identity(w, n, "first")]

    packed = first_kind_values()
    assert packed[0][n][n // 2] == math.comb(n, n // 2) * qpow(n // 2)
    _forced_onto_scalars(monkeypatch)
    assert _typed(packed) == _typed(first_kind_values())


def test_first_kind_table_over_forty_q_powers_takes_the_packed_ring(monkeypatch):
    # e_k(1, q, .., q^39) sums at most comb(40, 20) products (38 bits): a slot
    # of 5 bytes, where the second kind's comb(79, 40) (76 bits) is past 8
    w = qpowers(40)
    assert _slot_bytes(w, 40, "first") == 5
    assert _slot_bytes(w, 40) is None
    packed = first_kind_table(w, 40)
    _forced_onto_scalars(monkeypatch)
    assert _typed(packed) == _typed(first_kind_table(w, 40))


def _with_edge_cases(test):
    for weights, _ in _WIDTH_CASES:
        test = example(weights, 2)(test)
    # h_7 of six copies of +-q is +-792 q^7: the pass over the norms, all 1,
    # gives comb(12, 7) = 792, which takes the slot from 1 byte to 2
    for weights in ([Q] * 6, [-Q] * 6):
        test = example(weights, 7)(test)
    return test


@settings(deadline=None, max_examples=60)
@given(st.lists(int_polynomials, max_size=6), st.integers(0, 7))
@_with_edge_cases
def test_packed_ring_matches_the_scalar_ring(weights, k):
    # the same computation forced onto (w.weights, as_scalar), value for
    # value and coefficient type for coefficient type
    w = WeightVector(tuple(weights))
    ringed = _everything(w, k)
    with pytest.MonkeyPatch.context() as monkeypatch:
        _forced_onto_scalars(monkeypatch)
        assert _typed(ringed) == _typed(_everything(w, k))


def _ring_taken(w, k):
    """The ring ``_ring(w, k)`` takes: "constant", "packed" or "scalar"."""
    values, _ = _ring(w, k)
    return "constant" if values == _constants(w) else "scalar" if values is w.weights else "packed"


def _cells(value):
    """The leaves of a value, a table or a list of them, flattened."""
    if isinstance(value, list):
        return [cell for v in value for cell in _cells(v)]
    return [value]


@pytest.mark.parametrize(
    "weights, ring",
    [
        ([2, Fraction(-1, 2), 3], "constant"),
        ([Q, 1 + Q, as_scalar(-2)], "packed"),
        ([(1 + Q) / (Q - 2), as_scalar(2), Q], "scalar"),
    ],
)
def test_every_cell_is_a_scalar_on_every_ring(weights, ring):
    # each ring starts its cells from the ints 0 and 1, and the read-back
    # turns every cell into a Scalar: the zeros above the diagonal of the
    # first kind and of the triangle, and the ones of row 0, included
    w = WeightVector.of(weights)
    assert _ring_taken(w, len(w) + 1) == ring
    k = len(w) + 1
    out = _everything(w, k)
    identities = out[-(2 + len(w) + 1):]
    assert identities == [True] * len(identities)
    cells = _cells(out[: -len(identities)])
    assert {type(c) for c in cells} == {Scalar}
    assert ZERO in cells and ONE in cells


def test_monomial_weights_pack_as_shifts():
    # q^e packs as the factor p = 1 and a shift by 8we bits: no product
    values, _ = _ring(qpowers(5), 5)
    width = _slot_bytes(qpowers(5), 5)
    assert [(v.p, v.shift) for v in values] == [(1, 8 * width * e) for e in range(5)]


# weights with both a shift q^e and a factor p past a monomial
_SHIFTED = [Q**3 * (1 + 2 * Q), -(Q**2) + Q**5, 3 * Q - Q**4, as_scalar(-2), Q**2 * (Q - 1)]


@pytest.mark.parametrize("k", [0, 1, 3, 6])
def test_shifted_factors_match_the_scalar_ring(monkeypatch, k):
    w = WeightVector.of(_SHIFTED)
    width = _slot_bytes(w, k)
    assert width is not None
    values, _ = _ring(w, k)
    assert [v.shift for v in values] == [8 * width * e for e in (3, 2, 1, 0, 2)]
    assert all(abs(v.p) > 2 for v in values if v.shift)
    packed = _everything(w, k)
    _forced_onto_scalars(monkeypatch)
    assert _typed(packed) == _typed(_everything(w, k))


@pytest.mark.parametrize("n_max", [2, 12])
@pytest.mark.parametrize(
    "weights, ring",
    [
        ([2, Fraction(-1, 2), 3, 1], "constant"),
        (qpowers(6).weights, "packed"),
        ([parse_scalar(text) for text in "q^2+2*q^3,1,q-q^4,3*q^5,-q^3".split(",")], "packed"),
        ([(1 + Q) / (1 - 2 * Q), Q / 3, as_scalar(2)], "scalar"),
    ],
)
def test_triangle_matches_the_enumeration_on_every_ring(weights, ring, n_max):
    # T(m + k, m) = h_k(w_1..w_m), read from one enumeration; the
    # entries above the diagonal are zero, and n_max runs below and above len(w)
    w = WeightVector.of(weights)
    assert _ring_taken(w, n_max) == ring
    tri = second_kind_triangle_table(w, n_max)
    assert len(tri) == n_max + 1 and {len(row) for row in tri} == {len(w) + 1}
    assert {type(c) for row in tri for c in row} == {Scalar}
    enumerated = oracle_table(w, n_max, "second")
    for k in range(n_max + 1):
        column = [row[k] for row in enumerated]
        assert [tri[m + k][m] for m in range(min(len(w), n_max - k) + 1)] == column[: n_max - k + 1]
    for n, row in enumerate(tri):
        assert row[n + 1 :] == [ZERO] * (len(w) - n)
