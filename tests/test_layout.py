"""The library holds no code that only tests use, imports only the
standard library, and loads little of it on import.

Every top-level function and class of `src/ferchar` must be referenced,
outside its own definition, by the library itself, by the benchmark
harness in `perfbench/` (which names traced boundaries in strings), or by
`ferchar.__all__`.  Test oracles live in the test files.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import ferchar

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ferchar"

# test-only names that stay in the library: acceptance criterion 9 builds
# the tensor-product character with the library's own char_mul, which the
# Weyl-Kac check of the limit route will use
ALLOWED = {"char_mul"}


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


def test_library_imports_only_the_standard_library():
    outside = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {name}" for name in names
                        if name.partition(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def test_import_loads_no_dataclasses_logging_or_pool():
    # a fresh interpreter without site (-S), whose .pth hooks may preload
    # typing and so hide its cost, counting what importing ferchar.cli adds
    # to sys.modules: logging comes with the exact-recompute warning, the
    # pool with --jobs > 1, and argparse and its gettext with the whole tree
    code = ("import sys; before = set(sys.modules); import ferchar.cli; "
            "print(*sorted(set(sys.modules) - before))")
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": path},
                         check=True).stdout
    added = set(out.split())
    assert "ferchar.cli" in added
    assert {"dataclasses", "logging", "concurrent.futures", "typing",
            "argparse", "gettext"} & added == set()
    # a well-formed command runs without argparse, which only help, usage
    # and error text need
    code = ("import sys, ferchar.cli; "
            "code = ferchar.cli.main(['char', 'gordon', '--k', '1', '--qmax', '3']); "
            "print(code, 'argparse' in sys.modules, file=sys.stderr)")
    err = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": path},
                         check=True).stderr
    assert err == "0 False\n"
    assert [p.name for p in sorted(SRC.glob("*.py")) if "dataclass" in p.read_text()] == []
