"""Admissible coefficient sequences and the deformed integers they generate.

An admissible sequence assigns a nonzero Scalar psi_n to every n >= 0 with
psi_0 = 1 (and psi_n = 0 for negative n by convention).  It deforms the
naturals through the ratio n_psi = psi_{n-1}/psi_n, whose telescoping
product 1/psi_n plays the role of a factorial.  A :class:`PsiSequence`
memoizes both its values and these ratios, so each ratio's gcd division
runs once per sequence instance however often operators and series ask
for it.

Three builtin sequences cover the cases used throughout the package:

  qfact      psi_n = 1/(1_q * 2_q * ... * n_q), so n_psi is the q-integer
  classical  psi_n = 1/n!, so n_psi = n
  fibonacci  psi_n = 1/(F_1 * ... * F_n), so n_psi is the Fibonacci number
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Callable

from .scalar import ONE, Scalar, ZERO, as_scalar, q_factorial


class PsiSequence:
    """Memoized admissible sequence n -> psi_n, with memoized ratios n_psi."""

    __slots__ = ("name", "_rule", "_memo", "_ratios")

    def __init__(self, name: str, rule: Callable[[int], Scalar]):
        self.name = name
        self._rule = rule
        self._memo: dict[int, Scalar] = {}
        self._ratios: dict[int, Scalar] = {}
        if self.value(0) != ONE:
            raise ValueError(f"sequence {name!r} is not admissible: psi_0 != 1")

    def value(self, n: int) -> Scalar:
        """psi_n, with psi_n = 0 for n < 0."""
        if n < 0:
            return ZERO
        cached = self._memo.get(n)
        if cached is None:
            cached = as_scalar(self._rule(n))
            if cached.is_zero():
                raise ValueError(f"sequence {self.name!r} is not admissible: psi_{n} = 0")
            self._memo[n] = cached
        return cached

    def __repr__(self) -> str:
        return f"PsiSequence({self.name!r})"


def n_psi(psi: PsiSequence, n: int) -> Scalar:
    """The deformed integer psi_{n-1}/psi_n; 0 at n = 0.  Memoized on ``psi``."""
    if n < 0:
        raise ValueError("n_psi expects n >= 0")
    if n == 0:
        return ZERO
    cached = psi._ratios.get(n)
    if cached is None:
        cached = psi._ratios[n] = psi.value(n - 1) / psi.value(n)
    return cached


def _fibonacci(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def _fibonorial(n: int) -> int:
    product = 1
    for i in range(1, n + 1):
        product *= _fibonacci(i)
    return product


def qfact_psi() -> PsiSequence:
    return PsiSequence("qfact", lambda n: ONE / q_factorial(n))


def classical_psi() -> PsiSequence:
    return PsiSequence("classical", lambda n: as_scalar(Fraction(1, factorial(n))))


def fibonacci_psi() -> PsiSequence:
    return PsiSequence("fibonacci", lambda n: as_scalar(Fraction(1, _fibonorial(n))))


_BUILTINS: dict[str, Callable[[], PsiSequence]] = {
    "qfact": qfact_psi,
    "classical": classical_psi,
    "fibonacci": fibonacci_psi,
}

PSI_NAMES = tuple(sorted(_BUILTINS))

_instances: dict[str, PsiSequence] = {}


def get_psi(name: str) -> PsiSequence:
    """Shared instance of a builtin sequence (memo tables are reused)."""
    if name not in _BUILTINS:
        raise ValueError(f"unknown psi sequence {name!r}; expected one of {PSI_NAMES}")
    if name not in _instances:
        _instances[name] = _BUILTINS[name]()
    return _instances[name]
