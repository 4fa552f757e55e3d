"""Every name a module imports is used in the scope that imports it.

No linter ships with the project, so this parses each module with ``ast``.
An import at module level must be referenced somewhere in the module; an
import inside a function must be referenced inside that function.  Names in
annotations count, quoted or not.  ``__init__.py`` is exempt: its imports
are the package's re-exports.
"""
from __future__ import annotations

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "tempro"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _referenced(scope: ast.AST) -> set[str]:
    """Names loaded in ``scope``, with the root name of each dotted access
    and the names inside string annotations."""
    names: set[str] = set()
    for node in ast.walk(scope):
        if isinstance(node, ast.Name):
            names.add(node.id)
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                names |= _referenced(ast.parse(annotation.value, mode="eval"))
    return names


def _bound(node: ast.Import | ast.ImportFrom) -> list[str]:
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [alias.asname or alias.name.split(".")[0] for alias in node.names]


def _imports_by_scope(node: ast.AST, scope: ast.AST, out: dict) -> dict:
    """The import statements under ``node``, keyed by the innermost function
    that holds each (``scope`` when none does)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            out.setdefault(scope, []).append(child)
        inner = child if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
        _imports_by_scope(child, inner, out)
    return out


def unused_imports(source: str) -> list[str]:
    """``name (line N)`` for each imported name its scope never references."""
    tree = ast.parse(source)
    found = []
    for scope, imports in _imports_by_scope(tree, tree, {}).items():
        used = _referenced(scope)
        found += [
            (node.lineno, name)
            for node in imports for name in _bound(node) if name not in used
        ]
    return [f"{name} (line {lineno})" for lineno, name in sorted(found)]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize(
    "source,unused",
    [
        ("import math\n", ["math (line 1)"]),
        ("import os.path\nos.sep\n", []),
        ("from a import b as c\nb\n", ["c (line 1)"]),
        ("from __future__ import annotations\n", []),
        ("import numpy as np\ndef f(x: np.ndarray): pass\n", []),
        ("import numpy as np\ndef f(x: 'np.ndarray'): pass\n", []),
        ("import numpy as np\ndef f() -> 'np.ndarray': pass\n", []),
        ("import numpy as np\nx: 'np.ndarray'\n", []),
        ("from typing import TYPE_CHECKING\nif TYPE_CHECKING:\n    import numpy as np\n", ["np (line 3)"]),
        ("import numpy as np\ndef f():\n    return np\n", []),
        # A function's own import must be used in that function, even when
        # the module uses the same name elsewhere.
        ("def f():\n    import numpy as np\ndef g(np):\n    return np\n", ["np (line 2)"]),
        ("def f():\n    import numpy as np\n    def g():\n        return np\n    return g\n", []),
    ],
)
def test_scan_finds_unused_names(source, unused):
    assert unused_imports(source) == unused
