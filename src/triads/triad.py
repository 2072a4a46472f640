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
which :func:`verify_connection` checks as one matrix product C * Phi.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from .poly import P_ONE, P_ZERO, Poly, x_power
from .scalar import ONE, Scalar, ZERO, as_scalar, matrix_product, qpow

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
    if rows < 0:
        raise ValueError("row count must be nonnegative")
    table: list[list[Scalar]] = [[ONE]]
    for n in range(rows):
        prev = table[n]
        row = []
        # coefficients multiplying out-of-triangle (zero) entries are never
        # evaluated, so depth-N tables need sequence indices 0..N-1 only
        for k in range(n + 2):
            value = ZERO
            if k >= 1:
                value = value + spec.i_seq(k - 1) * prev[k - 1]
            if k <= n:
                value = value + spec.q_seq(k) * prev[k]
            if k + 1 <= n:
                value = value + spec.d_seq(k + 1) * prev[k + 1]
            row.append(value)
        table.append(row)
    return TriadTable(table)


def dual_polynomials(spec: TriadSpec, count: int) -> list[Poly]:
    """The polynomials phi_0 .. phi_count generated by the dual recurrence."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    phis = [P_ONE]
    prev = P_ZERO
    for k in range(count):
        ik = spec.i_seq(k)
        if ik.is_zero():
            raise SingularTriadError(k)
        current = phis[k]
        top = current.times_x() - current.scale(spec.q_seq(k))
        if k >= 1:
            top = top - prev.scale(spec.d_seq(k))
        phis.append(top.scale(ONE / ik))
        prev = current
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

    Row n of the matrix product C * Phi, where C is the coefficient triangle
    and Phi[k][j] is the x^j coefficient of phi_k, is compared with x^n
    entry by entry; the residual polynomial is built only for a row that
    differs.  One FAIL line per row n whose residual is nonzero; one PASS
    line if none.
    """
    table = coefficient_table(spec, rows)
    phis = dual_polynomials(spec, rows)
    report = SuiteResult(f"connection {spec.name or 'spec'}")
    for n, row in enumerate(matrix_product(table.rows, [phi.coeffs for phi in phis])):
        target = x_power(n)
        if row != target.coeffs:
            residual = Poly(row) - target
            if not residual.is_zero():
                report.check(False, f"n={n}: residual {residual}")
    if not report.lines:
        report.check(True, f"x^n recovered for all n <= {rows}")
    return report


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
