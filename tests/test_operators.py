"""Diagonal operators: the deformation operator, its arrays, and shapes."""

import pytest

from triads import konvalina, operators, suites
from triads.konvalina import WeightVector, first_kind, second_kind
from triads.operators import (
    _konkwa,
    DepthExceededError,
    DiagOp,
    binomial_operator,
    konkwa_first_kind,
    konkwa_second_kind,
    konkwa_table,
    n_qhat,
    n_qhat_entries,
    qhat,
    qhat_power_entries,
    stirling1_operator,
    stirling2_operator,
)
from triads.poly import P_ZERO, parse_poly, x_power
from triads.psi import get_psi, n_psi
from triads.psi_extensions import psi_stirling_first, psi_stirling_second
from triads.scalar import ONE, Q, ZERO, as_scalar, q_integer

from .oracles import int_stirling1, int_stirling2, q_binomial_by_factorials


def test_qhat_of_qfact_is_multiplication_by_q():
    op = qhat(get_psi("qfact"), 10)
    assert all(v == Q for v in op.eigen)
    assert op.apply(x_power(3)) == x_power(3).scale(Q)


def test_qhat_powers():
    op = qhat(get_psi("qfact"), 10)
    for m in range(11):
        assert (op**m).eigen[m] == Q**m


def test_qhat_of_classical_is_identity_from_degree_one():
    op = qhat(get_psi("classical"), 8)
    assert all(v == ONE for v in op.eigen)


def test_qhat_of_fibonacci_varies_with_degree():
    op = qhat(get_psi("fibonacci"), 6)
    # (F_{m+1} - 1)/F_m: m=1 -> 0/1... careful: F_2=1 so (1-1)/1 = 0? no:
    # eigen[m] = ((m+1)_psi - 1)/m_psi with n_psi = F_n: m=2 -> (F_3-1)/F_2 = 1
    assert op.eigen[2] == ONE
    assert op.eigen[4] == (as_scalar(5) - 1) / as_scalar(3)
    assert len(set(op.eigen)) > 1


@pytest.mark.parametrize("psi_name", ["classical", "qfact", "fibonacci"])
def test_qhat_eigenvalues_at_every_depth(psi_name):
    psi = get_psi(psi_name)

    def ratio(m):
        return (n_psi(psi, m + 1) - ONE) / n_psi(psi, m)

    for depth in range(5):
        # eigen[0] continues the value at m = 1, so depth 0 has one eigenvalue too
        assert qhat(psi, depth).eigen == tuple([ratio(1)] + [ratio(m) for m in range(1, depth + 1)])
    with pytest.raises(ValueError):
        qhat(psi, -1)


def test_n_qhat_eigenvalues():
    qf = get_psi("qfact")
    assert n_qhat(qf, 4, 6).eigen[3] == q_integer(4)
    assert n_qhat(qf, 1, 5) == DiagOp.identity(5)
    assert n_qhat(qf, 0, 5) == DiagOp.zero(5)
    cl = get_psi("classical")
    assert all(v == as_scalar(7) for v in n_qhat(cl, 7, 5).eigen)


def test_diagonal_algebra_is_commutative():
    qf = get_psi("fibonacci")
    a = n_qhat(qf, 3, 8)
    b = qhat(qf, 8) + DiagOp.identity(8)
    assert a * b == b * a
    assert (a + b) == (b + a)


def test_depth_mismatch_and_exceeded():
    with pytest.raises(ValueError):
        DiagOp.identity(3) + DiagOp.identity(4)
    with pytest.raises(DepthExceededError):
        DiagOp.identity(2).apply(x_power(3))
    assert DiagOp.identity(2).apply(P_ZERO) == P_ZERO


def test_konkwa_trivial_cases():
    base = qhat(get_psi("qfact"), 7)
    ow = qhat_power_entries(base, 3)
    assert konkwa_first_kind(ow, 0) == DiagOp.identity(7)
    assert konkwa_second_kind(ow, 0) == DiagOp.identity(7)
    single = qhat_power_entries(base, 2).prefix(2)
    assert konkwa_first_kind(single.prefix(1), 1) == single.entries[0]


def test_konkwa_eigenvalues_are_scalar_evaluations():
    base = qhat(get_psi("qfact"), 5)
    ow = qhat_power_entries(base, 3)  # entries 1, qhat, qhat^2
    expected = first_kind(WeightVector.of([ONE, Q, Q**2]), 2)
    assert all(v == expected for v in konkwa_first_kind(ow, 2).eigen)
    expected_s = second_kind(WeightVector.of([ONE, Q, Q**2]), 2)
    assert all(v == expected_s for v in konkwa_second_kind(ow, 2).eigen)


def test_binomial_operator_reduces_to_q_binomial():
    qf = get_psi("qfact")
    for n in range(8):
        for k in range(n + 1):
            op = binomial_operator(qhat(qf, 6), n, k)
            expected = q_binomial_by_factorials(n, k)
            assert all(v == expected for v in op.eigen)


def test_stirling_operators_reduce_to_arrays():
    qf = get_psi("qfact")
    for n in range(7):
        for k in range(n + 1):
            s2 = stirling2_operator(qhat(qf, 5), n, k)
            assert all(v == psi_stirling_second(qf, n, k) for v in s2.eigen)
            assert s2.eigen[0].eval_q(1) == int_stirling2(n, k)
            s1 = stirling1_operator(qhat(qf, 5), n, k)
            assert all(v == psi_stirling_first(qf, n, k) for v in s1.eigen)
            assert s1.eigen[0].eval_q(1) == int_stirling1(n, k)


def test_operator_arrays_reject_bad_indices():
    qf = get_psi("qfact")
    for build in (binomial_operator, stirling1_operator, stirling2_operator):
        with pytest.raises(IndexError):
            build(qhat(qf, 5), 2, 3)


def test_apply_examples():
    qf = get_psi("qfact")
    p = parse_poly("x^3 + 2*x")
    assert DiagOp.identity(8).apply(p) == p
    image = qhat(qf, 8).apply(x_power(3))
    assert image == x_power(3).scale(Q)
    assert binomial_operator(qhat(qf, 3), 4, 2).apply(x_power(3)) == x_power(3).scale(
        q_binomial_by_factorials(4, 2)
    )


def test_shape_recurrences_with_varying_eigenvalues():
    # first kind:  C(n, k) == C(n-1, k) + w_n C(n-1, k-1)
    # second kind: S(n, k) == S(n-1, k) + w_n S(n, k-1)
    fib = get_psi("fibonacci")
    base = qhat(fib, 8)
    for entries_of in (n_qhat_entries, qhat_power_entries):
        full = entries_of(base, 5)
        for n in range(1, 6):
            ow, shorter = full.prefix(n), full.prefix(n - 1)
            wn = full.entries[n - 1]
            for k in range(1, 6):
                assert konkwa_first_kind(ow, k) == konkwa_first_kind(shorter, k) + wn * konkwa_first_kind(shorter, k - 1)
                assert konkwa_second_kind(ow, k) == konkwa_second_kind(shorter, k) + wn * konkwa_second_kind(ow, k - 1)


@pytest.mark.parametrize("psi_name", ["fibonacci", "classical"])
def test_konkwa_eigenvalues_match_uncached_scalar_evaluation(psi_name):
    # the per-call cache is keyed on the base eigenvalue; every monomial must
    # still see the value of its own scalar weights
    base = qhat(get_psi(psi_name), 8)
    for entries_of in (n_qhat_entries, qhat_power_entries):
        ow = entries_of(base, 5)
        for k in range(7):
            first, second = konkwa_first_kind(ow, k), konkwa_second_kind(ow, k)
            for m in range(base.depth + 1):
                weights = ow.scalar_weights(m)
                assert first.eigen[m] == first_kind(weights, k)
                assert second.eigen[m] == second_kind(weights, k)


@pytest.mark.parametrize("psi_name", ["qfact", "classical", "fibonacci"])
def test_konkwa_table_entries_are_scalar_evaluations_of_each_prefix(psi_name):
    base = qhat(get_psi(psi_name), 7)
    for entries_of in (n_qhat_entries, qhat_power_entries):
        ow = entries_of(base, 5)
        for kind, value_fn in (("first", first_kind), ("second", second_kind)):
            table = konkwa_table(ow, 6, kind)
            assert len(table) == len(ow) + 1 and all(len(row) == 7 for row in table)
            for n, row in enumerate(table):
                for k, op in enumerate(row):
                    assert op.eigen == tuple(value_fn(ow.prefix(n).scalar_weights(m), k) for m in range(8))


def test_konkwa_table_runs_one_pass_per_distinct_eigenvalue_vector(monkeypatch):
    passes = []
    real = konvalina._last_box_rows

    def counted(*args):
        passes.append(args)
        return real(*args)

    monkeypatch.setattr(konvalina, "_last_box_rows", counted)
    # qhat(fibonacci) has eigenvalues 0, 0, 1, 1, 4/3, ... on x^0..x^7: 6
    # distinct vectors of constants, one pass each.  qhat(qfact) gives every
    # monomial the one vector ([1]_q, .., [4]_q) of int q-polynomials: one
    # pass over its l1 norms (1, 2, 3, 4) sizes the packed slot, and one
    # pass over its values fills the table
    for psi_name, distinct, expected in (("qfact", 1, 2), ("fibonacci", 6, 6)):
        ow = n_qhat_entries(qhat(get_psi(psi_name), 7), 4)
        del passes[:]
        konkwa_table(ow, 3, "second")
        assert len({ow.scalar_weights(m) for m in range(8)}) == distinct
        assert len(passes) == expected
        if psi_name == "qfact":
            assert passes[0][0] == [1, 2, 3, 4]


def test_konkwa_table_rejects_an_unknown_kind():
    with pytest.raises(ValueError):
        konkwa_table(n_qhat_entries(qhat(get_psi("qfact"), 2), 2), 2, "third")


def test_entries_are_powers_and_geometric_sums():
    base = qhat(get_psi("fibonacci"), 6)
    sums, powers = n_qhat_entries(base, 4), qhat_power_entries(base, 4)
    for i in range(1, 5):
        for m in range(7):
            lam = base.eigen[m]
            assert powers.entries[i - 1].eigen[m] == lam ** (i - 1)
            assert sums.entries[i - 1].eigen[m] == sum((lam**j for j in range(i)), ZERO)
        # i-th entry is the geometric sum of the base
        assert sums.entries[i - 1] == n_qhat(get_psi("fibonacci"), i, 6)


def test_operator_suite_builds_qhat_once_per_sequence(monkeypatch):
    calls = []

    def counting_qhat(psi, depth):
        calls.append(psi.name)
        return qhat(psi, depth)

    monkeypatch.setattr(operators, "qhat", counting_qhat)
    monkeypatch.setattr(suites, "qhat", counting_qhat)
    assert suites.suite_operator().ok
    assert len(calls) <= 2


@pytest.mark.parametrize("psi_name", ["qfact", "fibonacci"])
def test_konkwa_runs_the_recurrence_once_per_distinct_eigenvalue(psi_name):
    base = qhat(get_psi(psi_name), 6)
    seen = []

    def counting_value_fn(weights, k):
        seen.append(weights)
        return first_kind(weights, k)

    _konkwa(n_qhat_entries(base, 4), 2, counting_value_fn)
    assert len(seen) == len(set(base.eigen))
    if psi_name == "qfact":
        assert len(seen) == 1
