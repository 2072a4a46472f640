"""Deformed Stirling triangles, each one last-box pass."""

import pytest

from triads import konvalina
from triads.konvalina import first_kind_oracle, second_kind_oracle
from triads.psi import get_psi, n_psi
from triads.psi_extensions import psi_stirling_table, psi_weights
from triads.scalar import ONE, Q, as_scalar, q_integer

from .oracles import int_stirling1, int_stirling2


def test_classical_first_kind_values():
    table = psi_stirling_table(get_psi("classical"), 8, "first")
    assert table[4][2] == as_scalar(11)
    for n in range(9):
        for k in range(n + 1):
            assert table[n][k] == as_scalar(int_stirling1(n, k))


def test_classical_second_kind_values():
    table = psi_stirling_table(get_psi("classical"), 8, "second")
    assert table[4][2] == as_scalar(7)
    for n in range(9):
        for k in range(n + 1):
            assert table[n][k] == as_scalar(int_stirling2(n, k))


def test_diagonal_is_one():
    for name in ("classical", "qfact", "fibonacci"):
        for kind in ("first", "second"):
            table = psi_stirling_table(get_psi(name), 7, kind)
            assert [table[n][n] for n in range(8)] == [ONE] * 8


def test_qfact_small_values():
    qf = get_psi("qfact")
    assert psi_stirling_table(qf, 3, "first")[3][1] == ONE * (ONE + Q)  # 1_q * 2_q
    assert psi_stirling_table(qf, 3, "second")[3][2] == q_integer(1) + q_integer(2)


def test_qfact_at_q_one_reproduces_classical():
    qf = get_psi("qfact")
    first, second = psi_stirling_table(qf, 10, "first"), psi_stirling_table(qf, 10, "second")
    for n in range(11):
        for k in range(n + 1):
            assert first[n][k].eval_q(1) == int_stirling1(n, k)
            assert second[n][k].eval_q(1) == int_stirling2(n, k)


def test_values_match_enumeration():
    qf = get_psi("qfact")
    first, second = psi_stirling_table(qf, 6, "first"), psi_stirling_table(qf, 6, "second")
    for n in range(7):
        for k in range(n + 1):
            assert first[n][k] == first_kind_oracle(psi_weights(qf, n - 1), n - k)
            assert second[n][k] == second_kind_oracle(psi_weights(qf, k), n - k)


@pytest.mark.parametrize("name", ["classical", "qfact", "fibonacci"])
def test_table_matches_the_single_entries(monkeypatch, name):
    psi = get_psi(name)
    passes = []
    real = konvalina._last_box_rows

    def counted(*args):
        passes.append(args)
        return real(*args)

    monkeypatch.setattr(konvalina, "_last_box_rows", counted)
    for rows in (0, 1, 2, 12):
        for kind, oracle in (("first", first_kind_oracle), ("second", second_kind_oracle)):
            del passes[:]
            table = psi_stirling_table(psi, rows, kind)
            # one pass over the values; qfact's weights past [1]_q are int
            # q-polynomials not all constant, and their l1 norms take one
            # pass first, which sizes the packed slot
            weights = psi_weights(psi, rows - 1 if kind == "first" else rows)
            constant = weights.constant_values() is not None
            assert constant == (name != "qfact" or len(weights) < 2)
            assert len(passes) == (1 if constant else 2)
            # [n k]_psi enumerates n-k of (1_psi .. (n-1)_psi), {n k}_psi n-k of (1_psi .. k_psi)
            boxes = (lambda n, k: n - 1) if kind == "first" else (lambda n, k: k)
            for n in range(rows + 1):
                assert table[n] == [oracle(psi_weights(psi, boxes(n, k)), n - k) for k in range(n + 1)]
            assert len(table) == rows + 1


def test_table_refuses_an_unknown_kind_and_negative_rows():
    qf = get_psi("qfact")
    for rows, kind in ((3, "third"), (-1, "first"), (-1, "second")):
        with pytest.raises(ValueError):
            psi_stirling_table(qf, rows, kind)


def test_psi_weight_vector_materialization():
    fib = get_psi("fibonacci")
    assert psi_weights(fib, 4).weights == tuple(n_psi(fib, j) for j in range(1, 5))
    assert len(psi_weights(fib, 0)) == 0
