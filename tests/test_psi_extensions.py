"""Deformed Stirling triangles and the q-convention transform."""

import pytest

from triads import konvalina
from triads.konvalina import first_kind_oracle, second_kind_oracle
from triads.psi import get_psi, n_psi
from triads.psi_extensions import (
    comtet_transform,
    psi_stirling_first,
    psi_stirling_second,
    psi_stirling_table,
    psi_weights,
)
from triads.scalar import ONE, Q, as_scalar, parse_scalar, q_integer, qpow

from .oracles import int_stirling1, int_stirling2


def test_classical_first_kind_values():
    cl = get_psi("classical")
    assert psi_stirling_first(cl, 4, 2) == as_scalar(11)
    for n in range(9):
        for k in range(n + 1):
            assert psi_stirling_first(cl, n, k) == as_scalar(int_stirling1(n, k))


def test_classical_second_kind_values():
    cl = get_psi("classical")
    assert psi_stirling_second(cl, 4, 2) == as_scalar(7)
    for n in range(9):
        for k in range(n + 1):
            assert psi_stirling_second(cl, n, k) == as_scalar(int_stirling2(n, k))


def test_diagonal_is_one():
    for name in ("classical", "qfact", "fibonacci"):
        psi = get_psi(name)
        for n in range(8):
            assert psi_stirling_first(psi, n, n) == ONE
            assert psi_stirling_second(psi, n, n) == ONE


def test_qfact_small_values():
    qf = get_psi("qfact")
    assert psi_stirling_first(qf, 3, 1) == ONE * (ONE + Q)  # 1_q * 2_q
    assert psi_stirling_second(qf, 3, 2) == q_integer(1) + q_integer(2)


def test_qfact_at_q_one_reproduces_classical():
    qf = get_psi("qfact")
    for n in range(11):
        for k in range(n + 1):
            assert psi_stirling_first(qf, n, k).eval_q(1) == int_stirling1(n, k)
            assert psi_stirling_second(qf, n, k).eval_q(1) == int_stirling2(n, k)


def test_values_match_enumeration():
    qf = get_psi("qfact")
    for n in range(7):
        for k in range(n + 1):
            assert psi_stirling_first(qf, n, k) == first_kind_oracle(psi_weights(qf, n - 1), n - k)
            assert psi_stirling_second(qf, n, k) == second_kind_oracle(psi_weights(qf, k), n - k)


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
        for kind, value in (("first", psi_stirling_first), ("second", psi_stirling_second)):
            del passes[:]
            table = psi_stirling_table(psi, rows, kind)
            # one pass over the values; qfact's weights past [1]_q are int
            # q-polynomials not all constant, and their l1 norms take one
            # pass first, which sizes the packed slot
            weights = psi_weights(psi, rows - 1 if kind == "first" else rows)
            constant = weights.constant_values() is not None
            assert constant == (name != "qfact" or len(weights) < 2)
            assert len(passes) == (1 if constant else 2)
            assert table == [[value(psi, n, k) for k in range(n + 1)] for n in range(rows + 1)]


def test_table_refuses_an_unknown_kind_and_negative_rows():
    qf = get_psi("qfact")
    for rows, kind in ((3, "third"), (-1, "first"), (-1, "second")):
        with pytest.raises(ValueError):
            psi_stirling_table(qf, rows, kind)


def test_outside_triangle_raises():
    qf = get_psi("qfact")
    with pytest.raises(IndexError):
        psi_stirling_first(qf, 2, 3)
    with pytest.raises(IndexError):
        psi_stirling_second(qf, 2, -1)


def test_psi_weight_vector_materialization():
    fib = get_psi("fibonacci")
    assert psi_weights(fib, 4).weights == tuple(n_psi(fib, j) for j in range(1, 5))
    assert len(psi_weights(fib, 0)) == 0


def test_comtet_transform():
    assert comtet_transform(0, as_scalar(5)) == as_scalar(5)
    assert comtet_transform(1, Q + 1) == Q + 1
    assert comtet_transform(3, ONE) == qpow(3)
    value = parse_scalar("1 + q")
    assert comtet_transform(4, value) == value * qpow(6)
    with pytest.raises(ValueError):
        comtet_transform(-1, ONE)


def test_comtet_transform_of_second_kind_triangle():
    # transformed values stay exact symbolic objects; spot-check one entry
    qf = get_psi("qfact")
    base = psi_stirling_second(qf, 4, 2)
    assert comtet_transform(2, base) == base * Q
