"""Command-line front end.

Subcommands:

  table      emit a coefficient triangle (family or triad spec) as
             pretty text, CSV, or JSON
  konvalina  evaluate weighted binomial coefficients for explicit or
             rule-generated weight vectors
  verify     run a verification suite or check one triad spec; exits 0
             on full pass, 1 on any identity failure
  operator   apply an operator-array entry to a polynomial

All output is deterministic for a given flag set (randomized suites are
seeded, default seed 7), so golden-file comparisons are safe.  Exit codes:
0 success / all-pass, 1 identity failure, 2 usage or input error, 141
(128 + SIGPIPE) when the reader closes stdout before the output ends.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .families import FAMILIES, family_table
from .konvalina import WEIGHT_RULES, WeightVector, first_kind, first_kind_table, last_box_table, second_kind
from .operators import OPERATOR_ARRAYS, qhat
from .poly import parse_poly
from .psi import PSI_NAMES, get_psi
from .psi_extensions import psi_stirling_table
from .scalar import ParseError, PoleError, Scalar, as_scalar
from .suites import DEFAULT_SEED, SUITE_NAMES, run_suites
from .triad import SuiteResult, coefficient_table, load_spec, verify_connection, verify_degrees

TABLE_FAMILIES = tuple(sorted(FAMILIES)) + ("psi-stirling1", "psi-stirling2")


class CliError(Exception):
    """Input problem that should exit with the usage status."""


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"not a rational number: {text!r} ({exc})")


def _cell_texts(rows: list[list[Scalar]], q_value: Fraction | None) -> tuple[list[list[str]], list[list[bool]]]:
    """Render cells; the boolean grid marks symbolic (q-dependent) cells."""
    texts, symbolic = [], []
    for row in rows:
        t_row, s_row = [], []
        for cell in row:
            if q_value is not None:
                try:
                    t_row.append(str(cell.eval_q(q_value)))
                except PoleError as exc:
                    raise CliError(str(exc))
                s_row.append(False)
            else:
                t_row.append(str(cell))
                s_row.append(not cell.is_rational())
        texts.append(t_row)
        symbolic.append(s_row)
    return texts, symbolic


def _emit_table(args, rows: list[list[Scalar]], source_key: str, source_name: str, psi_name: str | None = None) -> None:
    texts, symbolic = _cell_texts(rows, args.q)
    if args.format == "csv":
        for t_row, s_row in zip(texts, symbolic):
            print(",".join(f'"{t}"' if sym else t for t, sym in zip(t_row, s_row)))
    elif args.format == "json":
        payload: dict = {source_key: source_name, "rows": texts}
        if args.q is not None:
            payload["q"] = str(args.q)
        if psi_name is not None:
            payload["psi"] = psi_name
        print(json.dumps(payload, indent=2))
    else:
        width = max((len(t) for row in texts for t in row), default=1)
        for t_row in texts:
            print("  ".join(t.rjust(width) for t in t_row))


def _cmd_table(args) -> int:
    if (args.family is None) == (args.spec is None):
        raise CliError("exactly one of --family or --spec is required")
    if args.rows < 0:
        raise CliError("--rows must be nonnegative")
    if args.family in ("psi-stirling1", "psi-stirling2"):
        psi_name = "qfact" if args.psi is None else args.psi
        psi = get_psi(psi_name)
        kind = "first" if args.family == "psi-stirling1" else "second"
        _emit_table(args, psi_stirling_table(psi, args.rows, kind), "family", args.family, psi_name=psi_name)
        return 0
    if args.psi is not None:
        raise CliError("--psi is read only by the psi-stirling1 and psi-stirling2 families")
    if args.family is not None:
        if args.family in FAMILIES:
            _emit_table(args, family_table(args.family, args.rows), "family", args.family)
        else:
            raise CliError(f"unknown family {args.family!r}; expected one of {TABLE_FAMILIES}")
    else:
        spec = load_spec(args.spec)
        rows = [list(row) for row in coefficient_table(spec, args.rows)]
        _emit_table(args, rows, "spec", spec.name or args.spec)
    return 0


def _weights_from_flag(text: str, length: int | None) -> WeightVector:
    if text in WEIGHT_RULES:
        if length is None:
            raise CliError(f"rule {text!r} needs --length")
        return WEIGHT_RULES[text](length)
    if length is not None:
        raise CliError(f"--length applies only to the rules {', '.join(WEIGHT_RULES)}")
    try:
        return WeightVector.of([as_scalar(part.strip()) for part in text.split(",")])
    except (ParseError, ZeroDivisionError) as exc:
        raise CliError(f"bad --weights value: {exc}")


def _cmd_konvalina(args) -> int:
    if args.length is not None and args.length < 0:
        raise CliError("--length must be nonnegative")
    w = _weights_from_flag(args.weights, args.length)
    if args.table == (args.k is not None):
        raise CliError("exactly one of --k or --table is required")
    if args.table:
        if args.kind == "first":
            rows = first_kind_table(w, len(w))
        else:
            rows = last_box_table(w, len(w), "second")
        _emit_table(args, rows, "weights", args.weights)
        return 0
    value = first_kind(w, args.k) if args.kind == "first" else second_kind(w, args.k)
    texts, _ = _cell_texts([[value]], args.q)
    print(texts[0][0])
    return 0


def _cmd_verify(args) -> int:
    if (args.suite is None) == (args.spec is None):
        raise CliError("exactly one of --suite or --spec is required")
    if args.rows is not None and args.rows < 0:
        raise CliError("--rows must be nonnegative")
    if args.spec is not None:
        for option in ("order", "psi", "seed"):
            if getattr(args, option) is not None:
                raise CliError(f"--{option} is read only by --suite, not by --spec")
        spec = load_spec(args.spec)
        rows = args.rows if args.rows is not None else 10
        report = verify_connection(spec, rows)
        for line in report.render():
            print(line)
        degrees = SuiteResult(f"degrees {spec.name or args.spec}")
        degrees.check(verify_degrees(spec, rows), f"deg phi_k = k for k <= {rows}")
        for line in degrees.render():
            print(line)
        return 0 if report.ok and degrees.ok else 1
    names = list(SUITE_NAMES) if args.suite == "all" else [args.suite]
    seed = DEFAULT_SEED if args.seed is None else args.seed
    results = run_suites(names, seed=seed, rows=args.rows, order=args.order, psi=args.psi)
    for result in results:
        for line in result.render():
            print(line)
    passed = sum(1 for r in results for ok, _ in r.lines if ok)
    total = sum(len(r.lines) for r in results)
    all_ok = all(r.ok for r in results)
    print(f"{passed}/{total} checks passed (seed={seed})")
    return 0 if all_ok else 1


def _cmd_operator(args) -> int:
    try:
        target = parse_poly(args.apply)
    except (ParseError, ValueError, ZeroDivisionError) as exc:
        raise CliError(f"bad --apply polynomial: {exc}")
    psi = get_psi(args.psi)
    build = OPERATOR_ARRAYS[args.array]
    try:
        op = build(qhat(psi, max(target.degree(), 0)), args.n, args.k)
    except IndexError as exc:
        raise CliError(str(exc))
    image = op.apply(target)
    if args.format == "json":
        payload = {
            "array": args.array,
            "n": args.n,
            "k": args.k,
            "psi": args.psi,
            "input": target.json_coefficients(),
            "image": image.json_coefficients(),
        }
        print(json.dumps(payload, indent=2))
    else:
        print(image)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triad",
        description="Exact duality-triad tables, weighted binomial coefficients, and identity suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    table = sub.add_parser("table", help="emit a coefficient triangle")
    table.add_argument("--family", choices=TABLE_FAMILIES, help="named coefficient family")
    table.add_argument("--spec", help="builtin triad spec name or JSON spec file")
    table.add_argument("--rows", type=int, required=True, help="last row index to emit")
    table.add_argument("--q", type=str, default=None, help="specialize q to this rational")
    table.add_argument("--psi", choices=PSI_NAMES, default=None, help="sequence for psi-* families (default qfact)")
    table.add_argument("--format", choices=("pretty", "csv", "json"), default="pretty")
    table.set_defaults(run=_cmd_table)

    kon = sub.add_parser("konvalina", help="weighted binomial coefficients")
    kon.add_argument("--weights", required=True, help='comma-separated scalars, or rule: ones|naturals|qpowers')
    kon.add_argument("--length", type=int, default=None, help="vector length when --weights is a rule name")
    kon.add_argument("--kind", choices=("first", "second"), default="first")
    kon.add_argument("--k", type=int, default=None, help="ball count to evaluate")
    kon.add_argument("--table", action="store_true", help="print the whole table instead")
    kon.add_argument("--q", type=str, default=None, help="specialize q to this rational")
    kon.add_argument("--format", choices=("pretty", "csv", "json"), default="pretty")
    kon.set_defaults(run=_cmd_konvalina)

    ver = sub.add_parser("verify", help="run identity suites or check a triad spec")
    ver.add_argument("--suite", choices=SUITE_NAMES + ("all",), help="suite to run")
    ver.add_argument("--spec", help="builtin triad spec name or JSON spec file")
    ver.add_argument("--rows", type=int, default=None, help="depth for triad/corollary/families checks")
    ver.add_argument("--order", type=int, default=None, help="truncation order for the genfun suite")
    ver.add_argument("--psi", choices=PSI_NAMES, default=None, help="restrict the genfun suite to one sequence")
    ver.add_argument("--seed", type=int, default=None, help=f"seed for randomized suites (default {DEFAULT_SEED})")
    ver.set_defaults(run=_cmd_verify)

    op = sub.add_parser("operator", help="apply an operator-array entry to a polynomial")
    op.add_argument("--array", choices=tuple(sorted(OPERATOR_ARRAYS)), required=True)
    op.add_argument("--n", type=int, required=True)
    op.add_argument("--k", type=int, required=True)
    op.add_argument("--psi", choices=PSI_NAMES, default="qfact")
    op.add_argument("--apply", required=True, help='polynomial to act on, e.g. "x^3"')
    op.add_argument("--format", choices=("pretty", "json"), default="pretty")
    op.set_defaults(run=_cmd_operator)

    return parser


# Options whose value is a scalar expression, which may start with a minus.
_EXPRESSION_OPTIONS = frozenset(("--weights", "--q", "--apply"))


def _attach_leading_minus_values(argv: list[str]) -> list[str]:
    """Rewrite ``--weights -3,4,5`` as ``--weights=-3,4,5``, likewise ``--q``, ``--apply``.

    argparse reads a value that starts with "-" and is not a plain number as
    a flag, so an expression with a leading minus would be refused.
    """
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in _EXPRESSION_OPTIONS and arg.startswith("-") and not arg.startswith("--"):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(_attach_leading_minus_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if getattr(args, "q", None) is not None:
            args.q = _parse_rational(args.q)
        return args.run(args)
    except (CliError, ParseError, ValueError, IndexError, OverflowError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # so the flush at exit cannot raise
        status = 141  # 128 + SIGPIPE
    sys.exit(status)


if __name__ == "__main__":
    console_main()
