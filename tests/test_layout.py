"""The library holds no code that only tests use.

Every top-level function and class of `src/ferchar` must be referenced,
outside its own definition, by the library itself, by the benchmark
harness in `perfbench/` (which names traced boundaries in strings), or by
`ferchar.__all__`.  Test oracles live in the test files.
"""

from __future__ import annotations

import ast
from pathlib import Path

import ferchar

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ferchar"

# test-only names that stay in the library: acceptance criterion 9 imports
# them to build the tensor-product character from the library's own
# arithmetic
ALLOWED = {"char_mul", "char_reweight", "restrict"}


def _names(node) -> set:
    """Names, attribute names and dotted string parts used under node."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.update(sub.value.split("."))
    return out


def _unused() -> dict:
    """Top-level names of src/ferchar with no use outside their definition:
    name -> module file."""
    defined, used = {}, set(ferchar.__all__)
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, ast.ImportFrom):
                continue  # an import alone is no use
            names = _names(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined[stmt.name] = path.name
                names.discard(stmt.name)
            used |= names
    for path in sorted((ROOT / "perfbench").rglob("*.py")):
        if "tests" not in path.relative_to(ROOT / "perfbench").parts:
            used |= _names(ast.parse(path.read_text()))
    return {name: module for name, module in defined.items() if name not in used}


def test_every_library_name_has_a_library_use():
    assert sorted(f"{module}: {name}" for name, module in _unused().items()
                  if name not in ALLOWED) == []


def test_allowlist_is_current():
    # an allowed name that is gone, or now has a library use, is stale
    assert sorted(ALLOWED - set(_unused())) == []
