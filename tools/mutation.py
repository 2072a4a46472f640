"""Mutation sweep of the gate: which one-site faults ``verify --suite all --seed 7`` catches.

Usage, from the repository root:

    python tools/mutation.py triad konvalina > mutants.jsonl

Each named module of ``src/triads`` is parsed with ``ast``, and every site
of these operators gives one mutant:

    +  <-> -      *  -> +      //  -> *
    <  <-> <=     >  <-> >=    ==  <-> !=
    an int constant 0, 1 or 2  -> itself + 1

Binary operators count in expressions and in augmented assignments.  A
mutant is the module with that one site changed, written back with
``ast.unparse`` into a temporary copy of the package; the gate then runs
on that copy with a 30 s timeout and a 1 GiB address-space limit, two
mutants at a time.  Each mutant is one JSON line on stdout, in source
order: module, line, col, operator and verdict.  The verdict is
``survived`` when stdout and the exit status equal those of the unmutated
package, ``fail-line`` for exit 1 with a FAIL line, ``timeout``, and
otherwise ``exit-N`` for the exit status N (exit-1 without a FAIL line is
a traceback, a MemoryError past the limit among them).  A summary per
module goes to stderr.
"""

from __future__ import annotations

import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "triads"
TIMEOUT_S = 30
# A mutant that lengthens an enumeration's weight vector can ask for many GiB
# before the timeout; the limit turns that into a MemoryError in the child.
MEMORY_LIMIT_BYTES = 1 << 30
GATE = [
    sys.executable,
    "-c",
    "import resource, runpy; "
    f"resource.setrlimit(resource.RLIMIT_AS, ({MEMORY_LIMIT_BYTES}, {MEMORY_LIMIT_BYTES})); "
    "runpy.run_module('triads', run_name='__main__', alter_sys=True)",
    "verify",
    "--suite",
    "all",
    "--seed",
    "7",
]
WORKERS = 2

_BINOPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Add, ast.FloorDiv: ast.Mult}
_CMPOPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Eq: ast.NotEq, ast.NotEq: ast.Eq}
_SYMBOLS = {
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.FloorDiv: "//",
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
}


def _sites(tree: ast.AST) -> list[tuple[ast.AST, int | None, str]]:
    """Every mutation site of ``tree``, as (node, index of the comparison operator or None, operator text)."""
    sites = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in _BINOPS:
            new = _BINOPS[type(node.op)]
            sites.append((node, None, f"{_SYMBOLS[type(node.op)]} -> {_SYMBOLS[new]}"))
        elif isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                if type(op) in _CMPOPS:
                    sites.append((node, i, f"{_SYMBOLS[type(op)]} -> {_SYMBOLS[_CMPOPS[type(op)]]}"))
        elif isinstance(node, ast.Constant) and type(node.value) is int and 0 <= node.value <= 2:
            sites.append((node, None, f"{node.value} -> {node.value + 1}"))
    return sites


def _mutate(node: ast.AST, index: int | None) -> None:
    if isinstance(node, ast.Compare):
        node.ops[index] = _CMPOPS[type(node.ops[index])]()
    elif isinstance(node, ast.Constant):
        node.value += 1
    else:
        node.op = _BINOPS[type(node.op)]()


def mutants(module: str) -> list[dict]:
    """One record per site of the module, each with the mutated source under ``source``."""
    text = (PACKAGE / f"{module}.py").read_text()
    out = []
    for n, (node, _, operator) in enumerate(_sites(ast.parse(text))):
        tree = ast.parse(text)
        site, index, _ = _sites(tree)[n]
        _mutate(site, index)
        record = {"module": module, "line": node.lineno, "col": node.col_offset, "operator": operator}
        out.append({**record, "source": ast.unparse(tree)})
    return sorted(out, key=lambda r: (r["line"], r["col"], r["operator"]))


def _run_gate(module: str | None = None, source: str | None = None) -> tuple[int | None, str]:
    """Exit status and stdout of the gate on a copy of the package, one module replaced; None on timeout."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "triads"
        shutil.copytree(PACKAGE, copy, ignore=shutil.ignore_patterns("__pycache__"))
        if module is not None:
            (copy / f"{module}.py").write_text(source)
        env = {**os.environ, "PYTHONPATH": tmp, "PYTHONDONTWRITEBYTECODE": "1"}
        try:
            done = subprocess.run(GATE, cwd=tmp, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None, ""
        return done.returncode, done.stdout


def _verdict(result: tuple[int | None, str], baseline: tuple[int, str]) -> str:
    status, stdout = result
    if status is None:
        return "timeout"
    if result == baseline:
        return "survived"
    if status == 1 and any(line.startswith("FAIL ") for line in stdout.splitlines()):
        return "fail-line"
    return f"exit-{status}"


def main(modules: list[str]) -> int:
    if not modules:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    baseline = _run_gate()
    if baseline[0] != 0:
        print(f"the unmutated gate exits {baseline[0]}; nothing to compare against", file=sys.stderr)
        return 2
    records = [r for module in modules for r in mutants(module)]
    with ThreadPoolExecutor(WORKERS) as pool:
        results = pool.map(lambda r: _run_gate(r["module"], r["source"]), records)
        tally = {module: Counter() for module in modules}
        for record, result in zip(records, results):
            del record["source"]
            record["verdict"] = _verdict(result, baseline)
            tally[record["module"]][record["verdict"]] += 1
            print(json.dumps(record), flush=True)
    for module, counts in tally.items():
        print(f"{module}: {sum(counts.values())} mutants, " + ", ".join(f"{v} {k}" for k, v in sorted(counts.items())),
              file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
