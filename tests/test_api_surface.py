"""No public API that nothing uses.

Every function, class and method defined in ``src/triads`` (dunders aside)
must be referenced by name somewhere in the program: as an ``ast.Name`` or
``ast.Attribute`` in a module of the package other than ``__init__.py``, or
in the benchmark harness under ``benchmarks/``.  A name that only the
package's exports or the tests reach is dead code.  The scan goes by bare
name, so a method counts as used when any attribute of that name is read.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "triads"


def _trees(paths) -> dict[Path, ast.Module]:
    return {path: ast.parse(path.read_text(), filename=str(path)) for path in paths}


def _definitions(tree: ast.Module) -> set[str]:
    defined = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                defined.add(node.name)
    return defined


def _references(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def test_every_definition_in_the_package_has_a_caller():
    package = _trees(sorted(PACKAGE.glob("*.py")))
    callers = {path: tree for path, tree in package.items() if path.name != "__init__.py"}
    callers.update(_trees(sorted((ROOT / "benchmarks").glob("*.py"))))
    used = set().union(*map(_references, callers.values()))
    unused = {
        f"{path.stem}.{name}"
        for path, tree in package.items()
        for name in _definitions(tree) - used
    }
    assert not unused, f"defined in src/triads but referenced nowhere in the program: {sorted(unused)}"


def test_the_scan_sees_a_definition_without_a_caller():
    source = "def used():\n    pass\n\ndef unused():\n    used()\n\nclass K:\n    def __eq__(self, o):\n        pass\n"
    tree = ast.parse(source)
    assert _definitions(tree) - _references(tree) == {"unused", "K"}
