"""Independent reference computations used to pin expected values.

Everything here deliberately avoids the package's recurrence fast paths:
counts come from explicit enumeration of combinatorial objects, symmetric
functions from Newton's identities, Bell numbers from the Bell triangle,
q-binomials from the factorial quotient, and q-polynomial products from
the term-by-term sum over plain coefficient lists.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, permutations

from triads.scalar import ONE, Scalar, ZERO, as_scalar, q_factorial


def subset_count(n: int, k: int) -> int:
    """Number of k-subsets of an n-set, by enumeration."""
    return sum(1 for _ in combinations(range(n), k))


def set_partitions(items: list):
    """All partitions of a list into nonempty blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [first]] + part[i + 1:]
        yield [[first]] + part


def stirling2_by_enumeration(n: int, k: int) -> int:
    """Partitions of an n-set into exactly k blocks, counted one by one."""
    return sum(1 for part in set_partitions(list(range(n))) if len(part) == k)


def _cycle_count(perm: tuple[int, ...]) -> int:
    seen = [False] * len(perm)
    cycles = 0
    for start in range(len(perm)):
        if not seen[start]:
            cycles += 1
            j = start
            while not seen[j]:
                seen[j] = True
                j = perm[j]
    return cycles


def stirling1_by_enumeration(n: int, k: int) -> int:
    """Permutations of an n-set with exactly k cycles, counted one by one."""
    if n == 0:
        return 1 if k == 0 else 0
    return sum(1 for perm in permutations(range(n)) if _cycle_count(perm) == k)


def bell_numbers(limit: int) -> list[int]:
    """Bell numbers B_0..B_limit via the Bell triangle."""
    rows = [[1]]
    for _ in range(limit):
        prev = rows[-1]
        row = [prev[-1]]
        for v in prev:
            row.append(row[-1] + v)
        rows.append(row)
    return [r[0] for r in rows]


def newton_elementary(values: list[Scalar], k: int) -> Scalar:
    """e_k of the values via Newton's identities on power sums."""
    if k == 0:
        return ONE
    if k > len(values):
        return ZERO
    power_sums = [_power_sum(values, i) for i in range(k + 1)]
    es = [ONE]
    for m in range(1, k + 1):
        acc = ZERO
        sign = 1
        for i in range(1, m + 1):
            term = es[m - i] * power_sums[i]
            acc = acc + term if sign > 0 else acc - term
            sign = -sign
        es.append(acc * as_scalar(Fraction(1, m)))
    return es[k]


def newton_complete(values: list[Scalar], k: int) -> Scalar:
    """h_k of the values via Newton's identities on power sums."""
    if k == 0:
        return ONE
    power_sums = [_power_sum(values, i) for i in range(k + 1)]
    hs = [ONE]
    for m in range(1, k + 1):
        acc = ZERO
        for i in range(1, m + 1):
            acc = acc + hs[m - i] * power_sums[i]
        hs.append(acc * as_scalar(Fraction(1, m)))
    return hs[k]


def _power_sum(values: list[Scalar], i: int) -> Scalar:
    total = ZERO
    for v in values:
        total = total + v**i
    return total


def schoolbook_product(a: list, b: list) -> list:
    """Coefficients of the product of two ascending coefficient lists, term by term."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def q_binomial_by_factorials(n: int, k: int) -> Scalar:
    """Gaussian coefficient as a quotient of q-factorials."""
    if k < 0 or k > n:
        return ZERO
    return q_factorial(n) / (q_factorial(k) * q_factorial(n - k))


def int_stirling2(n: int, k: int) -> int:
    """Classical second-kind triangle by its integer recurrence."""
    if n == 0 and k == 0:
        return 1
    if n == 0 or k <= 0 or k > n:
        return 0
    return k * int_stirling2(n - 1, k) + int_stirling2(n - 1, k - 1)


def int_stirling1(n: int, k: int) -> int:
    """Unsigned first-kind triangle by its integer recurrence."""
    if n == 0 and k == 0:
        return 1
    if n == 0 or k <= 0 or k > n:
        return 0
    return (n - 1) * int_stirling1(n - 1, k) + int_stirling1(n - 1, k - 1)


assert bell_numbers(4) == [1, 1, 2, 5, 15]
assert stirling2_by_enumeration(4, 2) == 7
assert stirling1_by_enumeration(4, 2) == 11
assert math.comb(5, 2) == subset_count(5, 2)
