"""Duality-triad engine.

A triad spec is three coefficient sequences i, q, d over k >= 0.  They
drive two recurrences that are dual to each other:

  * a triangular coefficient array
        c[n+1][k] = i(k-1)*c[n][k-1] + q(k)*c[n][k] + d(k+1)*c[n][k+1]
    with c[0][0] = 1 and every out-of-range entry equal to 0, and

  * a polynomial sequence phi_0 = 1, phi_{-1} = 0 with
        x*phi_k = d(k)*phi_{k-1} + q(k)*phi_k + i(k)*phi_{k+1},
    solved for phi_{k+1}, which requires i(k) != 0.

The two are linked by the connection identity x^n = sum_k c[n][k]*phi_k,
which :func:`verify_connection` checks for every n <= N.

Each recurrence is one definition over a ring, ``_triangle`` and
``_dual_rows``.  Each reads every sequence value it needs once, in the
order it first needs it, and multiplies by what it read: the triangle by
i, q and d, the dual recurrence, phi_{k+1} = (1/i(k))*(x*phi_k
- q(k)*phi_k - d(k)*phi_{k-1}), by 1/i(k), -q(k) and -d(k).  A ring is
those values, each multiplying a cell from the right with ``*``, and a
read-back of a cell as a canonical Scalar; cells start from the ints 0
and 1.  ``scalar._ring_for`` chooses it, by the rule ``konvalina`` uses
too.  Values all constant in q, as in pascal and stirling2, run as native
ints and Fractions.  Values all polynomials in q with int coefficients
(for the duals, i(k) = +-1/c) run packed, when the slot fits 8 bytes:
each value is a ``scalar._Packed`` factor at q = 2^(8w), so a monomial
c*q^e costs a product by c and a shift.  Otherwise, and past 8 bytes, the
ring is the Scalars.  Native and Scalar cells are read back with
``as_scalar``.  The slot width w comes from the same recurrence run over
the l1 norms |.|_1 of the values' coefficients,
    |c[n+1][k]|_1 <= |i(k-1)|_1*|c[n][k-1]|_1 + |q(k)|_1*|c[n][k]|_1 + |d(k+1)|_1*|c[n][k+1]|_1,
and the same rule for the coefficients of phi_{k+1}; the slot also holds
the values themselves.  Each cell is read back once, equal to what the
recurrence over Scalars gives.

When every value of both recurrences is a polynomial with int
coefficients, constants included (so every i(k) is +-1, the units of
Z[q]), the connection check packs them itself, with no cap, and reads
nothing back.  B bounds every coefficient of every sum_k c[n][k]*Phi[k][j],
where Phi[k][j] is the x^j coefficient of phi_k, from the same
recurrences over the l1 norms; with w = _slot_width(B) and h = ceil(w/2)
bytes, both recurrences run on the values packed at q = +2^(8h) and at
q = -2^(8h), and each row of C * Phi must be the unit row of x^n at both
points.  Two points with half a slot
each are exact: for a polynomial S whose coefficients are below 2^(16h)
in magnitude, S(2^(8h)) = S(-2^(8h)) = 0 puts both its even and its odd
part to zero at 2^(16h), so S = 0.  Each product has half the bits of a
product at q = 2^(8w), and two of those cost less than one of these
(Harvey's two-point Kronecker substitution).
A spec off that path, or a row that differs, takes the matrix product of
the triangle and dual polynomials as Scalars, both run on the values
already read, which names the failing rows.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from operator import add, lshift, mul
from pathlib import Path
from typing import Callable, Sequence

from .poly import Poly, _check_degree, x_power
from .scalar import (
    ONE,
    Scalar,
    ZERO,
    _l1_norms,
    _packed_factors,
    _ring_for,
    _slot_width,
    as_scalar,
    matrix_product,
    qpow,
)

SequenceRule = Callable[[int], Scalar]


class SingularTriadError(ValueError):
    """The dual recurrence cannot be solved because some i(k) is zero."""

    def __init__(self, k: int):
        super().__init__(f"i({k}) = 0: cannot solve the dual recurrence for phi_{k + 1}")
        self.k = k


@dataclass(frozen=True)
class TriadSpec:
    """Three coefficient sequences defining a duality triad."""

    i_seq: SequenceRule
    q_seq: SequenceRule
    d_seq: SequenceRule
    name: str | None = None

    @classmethod
    def of(cls, i, q, d, name: str | None = None) -> "TriadSpec":
        """Build a spec from constants, explicit lists, or callables."""
        return cls(_sequence(i), _sequence(q), _sequence(d), name)


def _sequence(source) -> SequenceRule:
    if callable(source):
        return lambda k: as_scalar(source(k))
    if isinstance(source, (list, tuple)):
        table = tuple(as_scalar(v) for v in source)

        def from_table(k: int) -> Scalar:
            if k >= len(table):
                raise IndexError(f"coefficient sequence of length {len(table)} has no entry {k}")
            return table[k]

        return from_table
    constant = as_scalar(source)
    return lambda k: constant


class TriadTable:
    """Triangular array of connection coefficients; immutable once built."""

    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[Sequence[Scalar]]):
        self.rows = tuple(tuple(row) for row in rows)

    def row(self, n: int) -> tuple[Scalar, ...]:
        return self.rows[n]

    def entry(self, n: int, k: int) -> Scalar:
        if 0 <= n < len(self.rows) and 0 <= k <= n:
            return self.rows[n][k]
        return ZERO

    def __iter__(self):
        return iter(self.rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TriadTable):
            return NotImplemented
        return self.rows == other.rows


def coefficient_table(spec: TriadSpec, rows: int) -> TriadTable:
    """Fill the coefficient triangle through the given row count."""
    return TriadTable(_table_from(_triangle_values(spec, rows), rows))


def _table_from(values: tuple[list, list, list], rows: int) -> list[list[Scalar]]:
    """The triangle's rows of Scalars over the values :func:`_triangle_values` read."""
    terms, read = _ring_for(values, lambda *norms: max(map(max, _triangle(*norms, rows))))
    return [list(map(read, row)) for row in _triangle(*terms, rows)]


def _triangle_values(spec: TriadSpec, rows: int) -> tuple[list, list, list]:
    """The values i, q and d the triangle reads through ``rows`` rows, d(0) standing in as zero."""
    if rows < 0:
        raise ValueError("row count must be nonnegative")
    # coefficients multiplying out-of-triangle (zero) entries are never
    # evaluated, so depth-N tables need i, q at 0..N-1 and d at 1..N-1 only;
    # each is read once, in the order the recurrence first needs it, so a
    # failing read raises the error the recurrence would meet first
    i_vals, q_vals, d_vals = [], [], [ZERO]
    for m in range(rows):
        if m:
            d_vals.append(spec.d_seq(m))
        q_vals.append(spec.q_seq(m))
        i_vals.append(spec.i_seq(m))
    return i_vals, q_vals, d_vals


def _triangle(i: Sequence, q: Sequence, d: Sequence, rows: int) -> list[list]:
    """c[n+1][k] = c[n][k-1]*i(k-1) + c[n][k]*q(k) + c[n][k+1]*d(k+1) over a ring.

    Over the l1 norms of the values, each cell bounds the l1 norm of the
    coefficients of the cell it stands for.
    """
    table = [[1]]
    for n in range(rows):
        prev = table[n]
        row = []
        for k in range(n + 2):
            value = 0
            if k >= 1:
                value = value + prev[k - 1] * i[k - 1]
            if k <= n:
                value = value + prev[k] * q[k]
            if k + 1 <= n:
                value = value + prev[k + 1] * d[k + 1]
            row.append(value)
        table.append(row)
    return table


def dual_polynomials(spec: TriadSpec, count: int) -> list[Poly]:
    """The polynomials phi_0 .. phi_count generated by the dual recurrence."""
    return _duals_from(_dual_values(spec, count), count)


def _duals_from(values: tuple[list, list, list], count: int) -> list[Poly]:
    """phi_0 .. phi_count over the values 1/i, -q and -d that :func:`_dual_values` read."""
    terms, read = _ring_for(values, lambda *norms: max(map(max, _dual_rows(*norms, count))))
    return [Poly._raw(tuple(map(read, phi))) for phi in _dual_rows(*terms, count)]


def _dual_values(spec: TriadSpec, count: int) -> tuple[list, list, list]:
    """1/i(k), -q(k) and -d(k), the values the dual recurrence multiplies by for phi_0 .. phi_count.

    -d(0) stands in as zero.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    # read in the recurrence's order, with its checks: a zero i(k) before
    # q(k) and d(k), and phi_{k+1} past the degree cap after i(k)
    i_vals, q_vals, d_vals = [], [], [ZERO]
    for k in range(count):
        ik = spec.i_seq(k)
        if ik.is_zero():
            raise SingularTriadError(k)
        _check_degree(k + 1)
        i_vals.append(ONE / ik)
        q_vals.append(-spec.q_seq(k))
        if k >= 1:
            d_vals.append(-spec.d_seq(k))
    return i_vals, q_vals, d_vals


def _dual_rows(r: Sequence, q: Sequence, d: Sequence, count: int) -> list[list]:
    """phi_{k+1} = (x*phi_k + phi_k*q(k) + phi_{k-1}*d(k))*r(k) over a ring, as x-coefficient lists.

    With r = 1/i, -q and -d, the dual recurrence.  Over the values' l1 norms,
    each entry bounds the l1 norm of the coefficients of the entry it stands for.
    """
    phis = [[1]]
    for k in range(count):
        current = phis[k]
        top = [0, *current]
        for j, c in enumerate(current):
            top[j] += c * q[k]
        if k >= 1:
            for j, c in enumerate(phis[k - 1]):
                top[j] += c * d[k]
        phis.append([c * r[k] for c in top])
    return phis


@dataclass
class SuiteResult:
    """Named batch of check lines, each an (ok, text) pair, in the order run."""

    name: str
    lines: list[tuple[bool, str]] = field(default_factory=list)

    def check(self, ok: bool, text: str) -> None:
        self.lines.append((ok, text))

    @property
    def ok(self) -> bool:
        return all(ok for ok, _ in self.lines)

    def render(self) -> list[str]:
        return [f"{'PASS' if ok else 'FAIL'} {self.name}: {text}" for ok, text in self.lines]


def verify_connection(spec: TriadSpec, rows: int) -> SuiteResult:
    """Check x^n = sum_k c[n][k]*phi_k exactly for each n <= rows.

    Row n of the matrix product C * Phi, where C is the coefficient
    triangle and Phi[k][j] is the x^j coefficient of phi_k, must be the
    coefficient row of x^n.  The sequence values are read once, as
    :func:`coefficient_table` and then :func:`dual_polynomials` read them,
    so a failing read raises the same error, and both routes below run the
    recurrences on the values read there.  When every value is a
    polynomial with int coefficients, :func:`_connection_at_two_points`
    checks every row on packed ints and reads nothing back: B bounds every
    coefficient of every sum_k c[n][k]*Phi[k][j], both recurrences run at
    q = +2^b and at q = -2^b with 2b bits enough for B, and a row equal to
    that of x^n at both points is x^n, since the two values give the even
    and the odd part of the row at 4^b.  A spec off that path, or a row that differs
    there, takes the Scalar route: C * Phi by :func:`matrix_product`,
    compared with x^n entry by entry, with the residual polynomial built
    only for a row that differs.  One FAIL line per row n whose residual
    is nonzero; one PASS line if none.
    """
    values = _triangle_values(spec, rows)
    dual_values = _dual_values(spec, rows)
    report = SuiteResult(f"connection {spec.name or 'spec'}")
    if not _connection_at_two_points(values, dual_values, rows):
        phis = _duals_from(dual_values, rows)
        for n, row in enumerate(matrix_product(_table_from(values, rows), [phi.coeffs for phi in phis])):
            target = x_power(n)
            if row != target.coeffs:
                residual = Poly(row) - target
                if not residual.is_zero():
                    report.check(False, f"n={n}: residual {residual}")
    if not report.lines:
        report.check(True, f"x^n recovered for all n <= {rows}")
    return report


def _connection_at_two_points(values: tuple, dual_values: tuple, rows: int) -> bool:
    """True when every row n <= rows of C * Phi is x^n, checked at q = 2^(8h) and at q = -2^(8h).

    Runs when every value the two recurrences multiply by, i, q and d for
    the triangle and 1/i, -q and -d for the duals, is a polynomial with int
    coefficients, so that every i(k) is +-1; otherwise, or when a row
    differs, it is False.  The recurrences run over the values' l1 norms
    bound the l1 norm of every cell of C and of every coefficient of Phi,
    and so B, the largest of those bounds, of the values' own norms and of
    every sum_k |c[n][k]|_1 * |Phi[k][j]|_1, bounds every coefficient of
    the q-polynomial S = sum_k c[n][k] * Phi[k][j].  With w = _slot_width(B)
    bytes, B < 2^(8w - 1); the half slot h = ceil(w/2) bytes, widened if
    needed to hold every value's coefficients, gives b = 8h bits with
    |S - delta| <= B + 1 <= 2^(2b - 1).  Both recurrences run unchanged on
    the values packed at q = 2^b and then at q = -2^b, and
    :func:`_is_inverse_pair` checks S(2^b) = S(-2^b) = delta, where delta
    is 1 for j = n and 0 otherwise.  That is exact: writing
    S - delta = E(q^2) + q*O(q^2), the two equations give E(4^b) = 0 and
    O(4^b) = 0, and a polynomial whose coefficients are all below 4^b in
    magnitude vanishes at 4^b only if it is zero.  Each product at the two
    points has about half the bits of one at q = 2^(8w).
    """
    norms = _l1_norms((*values, *dual_values))
    if norms is None:
        return False
    value_bound = max(max(seq, default=0) for seq in norms)
    half = max(-(-_slot_width(_connection_bound(norms, rows)) // 2), _slot_width(value_bound))
    for sign in (1, -1):
        table = _triangle(*_packed_factors(values, half, sign), rows)
        phis = _dual_rows(*_packed_factors(dual_values, half, sign), rows)
        if not _is_inverse_pair(table, phis):
            return False
    return True


def _connection_bound(norms: list[list[int]], rows: int) -> int:
    """B for :func:`_connection_at_two_points`, from the l1 norms of i, q, d and of 1/i, -q, -d of the duals.

    The largest of the norms, of the two recurrences run over them, and of
    every sum_k |c[n][k]|_1 * |Phi[k][j]|_1 over the bounds they give.
    """
    table_bounds = _triangle(*norms[:3], rows)
    phi_bounds = _dual_rows(*norms[3:], rows)
    return max(
        *(max(seq, default=0) for seq in norms),
        *map(max, table_bounds),
        *map(max, phi_bounds),
        *map(max, _lower_product(table_bounds, phi_bounds)),
    )


def _is_inverse_pair(a_rows: list[list[int]], b_rows: list[list[int]]) -> bool:
    """True iff the lower-triangular int matrices A and B have A * B = I.

    Row n of each has n + 1 entries, and A has no more rows than B.
    """
    return all(row == [0] * n + [1] for n, row in enumerate(_lower_product(a_rows, b_rows)))


def _lower_product(a_rows: list[list[int]], b_rows: list[list[int]]):
    """Row n of A * B for lower-triangular int matrices, one row at a time: sum_{k=j..n} A[n][k]*B[k][j] for j <= n.

    Each entry is split into its odd part and a power of two, so trailing
    zero bits -- the q-valuation of an entry at q = +-2^b -- cost no
    product bits: a term is the product of the odd parts, shifted.
    """
    b_cols = [_split_twos([row[j] for row in b_rows[j:]]) for j in range(len(b_rows))]
    for row in a_rows:
        odd, twos = _split_twos(row)
        yield [
            sum(map(lshift, map(mul, odd[j:], b_odd), map(add, twos[j:], b_twos)))
            for j, (b_odd, b_twos) in enumerate(b_cols[: len(row)])
        ]


def _split_twos(values: list[int]) -> tuple[list[int], list[int]]:
    """The odd part of each int and its power of two, as two lists; zero is (0, 0)."""
    odd, twos = [], []
    for v in values:
        t = (v & -v).bit_length() - 1 if v else 0
        odd.append(v >> t)
        twos.append(t)
    return odd, twos


def verify_degrees(spec: TriadSpec, count: int) -> bool:
    """True iff deg phi_k = k for every k <= count."""
    phis = dual_polynomials(spec, count)
    return all(phi.degree() == k for k, phi in enumerate(phis))


# -- builtin specs and JSON loading -----------------------------------------

def pascal_spec() -> TriadSpec:
    """i = 1, q = 1, d = 0; triangle of binomial coefficients, phi_k = (x-1)^k."""
    return TriadSpec.of(ONE, ONE, ZERO, name="pascal")


def stirling2_spec() -> TriadSpec:
    """i = 1, q(k) = k, d = 0; set-partition triangle, phi_k the falling factorials."""
    return TriadSpec.of(ONE, lambda k: as_scalar(k), ZERO, name="stirling2")


def gauss_spec() -> TriadSpec:
    """i = 1, q(k) = q^k, d = 0; Gaussian q-binomial triangle, phi_k = prod (x - q^i)."""
    return TriadSpec.of(ONE, lambda k: qpow(k), ZERO, name="gauss")


BUILTIN_SPECS: dict[str, Callable[[], TriadSpec]] = {
    "pascal": pascal_spec,
    "stirling2": stirling2_spec,
    "gauss": gauss_spec,
}

_SEQUENCE_RULES: dict[str, Callable[[dict], SequenceRule]] = {
    "constant": lambda params: _sequence(as_scalar(str(params.get("value", "1")))),
    "linear-k": lambda params: (lambda k: as_scalar(k)),
    "q-power-k": lambda params: (lambda k: qpow(k)),
}


def _sequence_from_json(obj, where: str) -> SequenceRule:
    if isinstance(obj, list):
        values = []
        try:
            for v in obj:
                values.append(as_scalar(str(v)))
        except (ValueError, ArithmeticError) as exc:
            # the entry that failed is the next one after those parsed
            raise ValueError(f"{where}, entry {len(values)}: {exc}") from None
        return _sequence(values)
    if isinstance(obj, dict):
        rule = obj.get("rule")
        if rule not in _SEQUENCE_RULES:
            raise ValueError(f"unknown sequence rule {rule!r}; expected one of {sorted(_SEQUENCE_RULES)}")
        return _SEQUENCE_RULES[rule](obj)
    raise ValueError("sequence must be a list of scalar strings or a rule object")


def spec_from_json(obj: dict, source: str = "spec") -> TriadSpec:
    """Decode {"name": ..., "i": ..., "q": ..., "d": ...} into a TriadSpec.

    An entry that fails to parse is named in the error as
    "<source>, sequence <key>, entry <index>: <reason>".
    """
    if not isinstance(obj, dict):
        raise ValueError("triad spec must be a JSON object with keys i, q, d")
    missing = [key for key in ("i", "q", "d") if key not in obj]
    if missing:
        raise ValueError(f"triad spec is missing sequences: {', '.join(missing)}")
    i_seq, q_seq, d_seq = (_sequence_from_json(obj[key], f"{source}, sequence {key}") for key in ("i", "q", "d"))
    return TriadSpec(i_seq, q_seq, d_seq, obj.get("name"))


def load_spec(name_or_path: str) -> TriadSpec:
    """Resolve a builtin spec name or read a JSON spec file."""
    if name_or_path in BUILTIN_SPECS:
        return BUILTIN_SPECS[name_or_path]()
    path = Path(name_or_path)
    if not path.exists():
        raise ValueError(
            f"{name_or_path!r} is neither a builtin spec ({', '.join(sorted(BUILTIN_SPECS))}) nor a file"
        )
    try:
        with path.open() as handle:
            obj = json.load(handle)
    except OSError as exc:
        raise ValueError(f"cannot read spec file {name_or_path!r}: {exc.strerror}")
    except ValueError as exc:
        # bad JSON, text that is not UTF-8, or an integer past the interpreter's digit limit
        raise ValueError(f"cannot parse spec file {name_or_path!r}: {exc}") from None
    spec = spec_from_json(obj, f"spec file {name_or_path!r}")
    if spec.name is None:
        spec = TriadSpec(spec.i_seq, spec.q_seq, spec.d_seq, path.stem)
    return spec
