"""Admissible sequences, deformed integers, and their factorials."""

from fractions import Fraction

import pytest

from triads.psi import (
    PsiSequence,
    classical_psi,
    fibonacci_psi,
    get_psi,
    n_psi,
    qfact_psi,
)
from triads.scalar import ONE, Q, ZERO, as_scalar, parse_scalar, q_factorial, q_integer


def test_qfact_deformed_integer_is_q_integer():
    qf = qfact_psi()
    assert n_psi(qf, 3) == parse_scalar("1 + q + q^2")
    for n in range(11):
        assert n_psi(qf, n) == q_integer(n)


def test_n_psi_zero_by_convention():
    assert n_psi(get_psi("classical"), 0) == ZERO
    assert n_psi(get_psi("qfact"), 0) == ZERO


def test_qfact_specializes_to_integers_at_q_one():
    qf = get_psi("qfact")
    assert n_psi(qf, 5).eval_q(1) == 5
    for n in range(9):
        assert n_psi(qf, n).eval_q(1) == n


def test_classical_deformed_integer_is_n():
    cl = get_psi("classical")
    for n in range(9):
        assert n_psi(cl, n) == as_scalar(n)


def test_fibonacci_deformed_integers():
    fib = get_psi("fibonacci")
    values = [n_psi(fib, n) for n in range(1, 9)]
    assert values == [as_scalar(v) for v in (1, 1, 2, 3, 5, 8, 13, 21)]


def test_psi_factorial():
    # 1/psi_n, the psi-factorial, is the q-factorial under qfact
    qf = qfact_psi()
    assert ONE / qf.value(0) == ONE
    assert ONE / qf.value(3) == (ONE + Q) * (ONE + Q + Q**2)
    for n in range(11):
        assert q_factorial(n) * qf.value(n) == ONE


def test_psi_factorial_telescopes():
    # 1/psi_n = n_psi * (n-1)_psi * ... * 1_psi
    for name in ("qfact", "classical", "fibonacci"):
        psi = get_psi(name)
        product = ONE
        for n in range(1, 11):
            product = product * n_psi(psi, n)
            assert ONE / psi.value(n) == product


def test_n_psi_memo_matches_fresh_ratio():
    for make in (qfact_psi, classical_psi, fibonacci_psi):
        psi = make()
        for n in range(1, 11):
            memoized = n_psi(psi, n)
            assert memoized == psi.value(n - 1) / psi.value(n)
            assert n_psi(psi, n) is memoized


def test_sequence_values_and_convention():
    cl = classical_psi()
    assert cl.value(0) == ONE
    assert cl.value(4) == as_scalar(Fraction(1, 24))
    assert cl.value(-2) == ZERO


def test_admissibility_enforced():
    with pytest.raises(ValueError):
        PsiSequence("bad-start", lambda n: as_scalar(2))
    broken = PsiSequence("bad-later", lambda n: as_scalar(0) if n == 3 else ONE)
    with pytest.raises(ValueError):
        broken.value(3)


def test_registry():
    assert get_psi("fibonacci") is get_psi("fibonacci")
    with pytest.raises(ValueError):
        get_psi("lucas")


def test_fibonacci_factorial_values():
    fib = fibonacci_psi()
    # 1 * 1 * 2 * 3 * 5 = 30
    assert ONE / fib.value(5) == as_scalar(30)
