"""Inputs, bodies and output checks of the three workloads.

``make_inputs`` builds a workload's inputs from the seed with the standard
library only; the harness writes them to a file and the worker reads them
back, so the program sees nothing but the generated inputs.  ``run`` is the
timed region.  ``check`` runs after it and compares the outputs with
references computed here over plain ``int`` coefficient lists, a route that
shares no arithmetic with the package.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
from pathlib import Path

NAMES = ("gate", "deep-triad", "table-roundtrip")

# Sizes per workload.  "full" is what a benchmark run measures; "tiny" is
# for the smoke test and changes nothing but the size.
SIZES = {
    "full": {"gate_suite": "all", "depth": 26, "rows": 24},
    "tiny": {"gate_suite": "families", "depth": 6, "rows": 6},
}


# -- inputs ---------------------------------------------------------------------

def _poly_text(terms: list[tuple[int, int]]) -> str:
    """Text of sum c*q^e over (c, e) pairs with c > 0, in the package grammar."""
    parts = []
    for c, e in terms:
        power = "" if e == 0 else ("*q" if e == 1 else f"*q^{e}")
        parts.append(f"{c}{power}")
    return " + ".join(parts)


def make_inputs(workload: str, seed: int, size: str, workdir: Path) -> dict:
    """Seeded inputs of one workload; writes any input file under ``workdir``."""
    rng = random.Random(f"{workload}:{seed}")
    sizes = SIZES[size]
    if workload == "gate":
        gate_seed = rng.randrange(1, 1_000_000)
        argv = ["verify", "--suite", sizes["gate_suite"], "--seed", str(gate_seed)]
        return {"argv": argv, "gate_seed": gate_seed}
    if workload == "deep-triad":
        depth = sizes["depth"]
        # d(k) = a_k q^k with a_k != 0, so every d-term of the recurrence runs
        return {"depth": depth, "a": [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(depth + 1)]}
    if workload == "table-roundtrip":
        rows = sizes["rows"]
        # i(k) = 1, q(k) = b_k q^k + c_k, d(k) = e_k q^k with positive seeded
        # coefficients: nothing cancels, so every seed does the same work
        # up to the size of the integers.
        b, c, e = ([rng.randint(1, 3) for _ in range(rows + 1)] for _ in range(3))
        spec = {
            "name": f"roundtrip-{seed}",
            "i": ["1"] * (rows + 1),
            "q": [_poly_text([(c[k], 0), (b[k], k)]) if k else str(b[k] + c[k]) for k in range(rows + 1)],
            "d": [_poly_text([(e[k], k)]) for k in range(rows + 1)],
        }
        spec_path = workdir / "spec.json"
        spec_path.write_text(json.dumps(spec, indent=1))
        argv = ["table", "--spec", str(spec_path), "--rows", str(rows), "--format", "json"]
        return {"argv": argv, "rows": rows, "b": b, "c": c, "e": e}
    raise ValueError(f"unknown workload {workload!r}; expected one of {NAMES}")


# -- timed bodies ---------------------------------------------------------------

def _cli(argv: list[str]) -> tuple[int, str]:
    from triads import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def run(workload: str, inputs: dict) -> dict:
    """One pass of the workload; returns its raw outputs for ``check``."""
    if workload == "gate":
        code, stdout = _cli(inputs["argv"])
        return {"code": code, "stdout": stdout}
    if workload == "deep-triad":
        from triads import ONE, TriadSpec, as_scalar, coefficient_table, gauss_spec, qpow, verify_connection, verify_degrees

        depth = inputs["depth"]
        seeded = TriadSpec.of(
            ONE, lambda k: qpow(k), [as_scalar(a) * qpow(k) for k, a in enumerate(inputs["a"])], name="seeded"
        )
        results = {}
        for spec in (gauss_spec(), seeded):
            results[spec.name] = (
                verify_connection(spec, depth),
                verify_degrees(spec, depth),
                coefficient_table(spec, depth).row(depth),
            )
        return {"results": results, "stdout": ""}
    if workload == "table-roundtrip":
        from triads import parse_scalar

        code, stdout = _cli(inputs["argv"])
        try:
            rows = json.loads(stdout)["rows"]
        except (ValueError, KeyError, TypeError):
            return {"code": code, "stdout": stdout, "cells": None}
        return {"code": code, "stdout": stdout, "cells": [[parse_scalar(text) for text in row] for row in rows]}
    raise ValueError(f"unknown workload {workload!r}; expected one of {NAMES}")


# -- references over int coefficient lists ----------------------------------------

def _strip(p: list[int]) -> list[int]:
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p


def _add(a: list[int], b: list[int]) -> list[int]:
    out = a + [0] * (len(b) - len(a)) if len(a) < len(b) else list(a)
    for i, bi in enumerate(b):
        out[i] += bi
    return _strip(out)


def _mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return _strip(out)


def _monomial(c: int, e: int) -> list[int]:
    return _strip([0] * e + [c])


def triangle(rows: int, q_seq, d_seq) -> list[list[list[int]]]:
    """c[n+1][k] = c[n][k-1] + q(k) c[n][k] + d(k+1) c[n][k+1], c[0][0] = 1 (i = 1)."""
    table = [[[1]]]
    for n in range(rows):
        prev = table[n]
        row = []
        for k in range(n + 2):
            value = [0]
            if k >= 1:
                value = _add(value, prev[k - 1])
            if k <= n:
                value = _add(value, _mul(q_seq(k), prev[k]))
            if k + 1 <= n:
                value = _add(value, _mul(d_seq(k + 1), prev[k + 1]))
            row.append(value)
        table.append(row)
    return table


def _cell_ok(cell, expected: list[int]) -> bool:
    return cell.den.is_one() and list(cell.num.coeffs) == expected


# -- checks ----------------------------------------------------------------------

_TOTAL_RE = re.compile(r"(\d+)/(\d+) checks passed \(seed=(-?\d+)\)")


def check(workload: str, inputs: dict, outputs: dict) -> list[tuple[str, bool]]:
    """Named pass/fail results of one pass; every entry counts as one check."""
    if workload == "gate":
        lines = outputs["stdout"].splitlines()
        checks = [("exit code 0", outputs["code"] == 0)]
        body, last = lines[:-1], (lines[-1] if lines else "")
        checks += [(f"PASS line: {line}", line.startswith("PASS ")) for line in body]
        total = _TOTAL_RE.fullmatch(last)
        checks.append((
            f"final line 'K/K checks passed': {last}",
            total is not None
            and total.group(1) == total.group(2) == str(len(body))
            and total.group(3) == str(inputs["gate_seed"]),
        ))
        return checks
    if workload == "deep-triad":
        depth, a = inputs["depth"], inputs["a"]
        references = {
            "gauss": triangle(depth, lambda k: _monomial(1, k), lambda k: [0])[depth],
            "seeded": triangle(depth, lambda k: _monomial(1, k), lambda k: _monomial(a[k], k))[depth],
        }
        checks = []
        for name, (report, degrees_ok, row) in outputs["results"].items():
            checks.append((f"{name}: connection report ok", report.ok))
            checks.append((f"{name}: degrees ok", degrees_ok))
            checks.append((f"{name}: row {depth} has {depth + 1} cells", len(row) == depth + 1))
            checks += [
                (f"{name}: c[{depth}][{k}] equals the int-list recurrence", _cell_ok(cell, ref))
                for k, (cell, ref) in enumerate(zip(row, references[name]))
            ]
        return checks
    if workload == "table-roundtrip":
        rows, b, c, e = inputs["rows"], inputs["b"], inputs["c"], inputs["e"]
        checks = [("exit code 0", outputs["code"] == 0), ("stdout is JSON with 'rows'", outputs["cells"] is not None)]
        if outputs["cells"] is None:
            return checks
        reference = triangle(rows, lambda k: _add(_monomial(c[k], 0), _monomial(b[k], k)), lambda k: _monomial(e[k], k))
        cells = outputs["cells"]
        checks.append((f"{rows + 1} rows emitted", len(cells) == rows + 1))
        for n, (row, ref_row) in enumerate(zip(cells, reference)):
            checks.append((f"row {n} has {n + 1} cells", len(row) == n + 1))
            checks += [
                (f"parsed c[{n}][{k}] equals the int-list recurrence", _cell_ok(cell, ref))
                for k, (cell, ref) in enumerate(zip(row, ref_row))
            ]
        return checks
    raise ValueError(f"unknown workload {workload!r}; expected one of {NAMES}")
