"""Every name a module imports is used in the scope that imports it, and
every function and class a module defines is used somewhere.

No linter ships with the project, so this parses each module with ``ast``.
An import at module level must be referenced somewhere in the module; an
import inside a function must be referenced inside that function.  Names in
annotations count, quoted or not.  ``__init__.py`` is exempt: its imports
are the package's re-exports.

A module-level function or class must be referenced outside its own body,
in the package, ``bench`` or ``scripts``; a re-export in ``__init__.py`` is
an import, so it does not count.  Module-level dunder hooks, such as a
PEP 562 ``__getattr__``, are exempt: the interpreter calls them.  So must the name of each method and
property, dunder methods aside.  An attribute read off a module from
outside the project, such as ``np.clip``, is not a use.  The few kept for
the tests alone are listed with their reasons in ``KEPT_FOR_TESTS`` and
``MEMBERS_KEPT_FOR_TESTS``.

Curves are ``array('d')``, so the pipeline needs no numpy: only the
functions in ``NUMPY_USERS``, the quadratic oracles the tests check it
against, import numpy, each inside its own body.  No module imports
``dataclasses``, ``logging`` or ``typing``, at module level or in a
function: the records are plain slotted classes, ``collections.abc`` has
the abstract types the annotations name, and ``refine`` logs only through a
``logging`` that something else loaded, so none of these imports' cost
lands on a command.
"""
from __future__ import annotations

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "tempro"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
USERS = sorted([*SRC.glob("*.py"), *(ROOT / "bench").glob("*.py"), *(ROOT / "scripts").glob("*.py")])
# The package, and the bench and script modules that import each other.
PROJECT_MODULES = {"tempro", *(p.stem for p in USERS)}

KEPT_FOR_TESTS = {
    "survivor_eval": "the continuous survivor that gate c05 samples",
    "series_integral": "the window masses the token and refinement tests check",
}

MEMBERS_KEPT_FOR_TESTS = {
    "CausalTheory.pretty": "the parser's Hypothesis round-trip test prints generated theories with it",
    "FactToken.closed": "the refine and CLI tests and _assert_same_as_oracle read it",
    "TokenStore.token": "the token and refinement tests look tokens up by id with it; refine reads the store's list",
}

NUMPY_USERS = {
    ("core.py", "series_integral"),
    ("refinement.py", "_lag_weights"),
    ("refinement.py", "_rows"),
    ("refinement.py", "convolve_direct"),
}


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


def _nodes(tree: ast.AST, skip: ast.AST | None = None):
    """The nodes of ``tree``, less those under ``skip``."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is not skip:
            yield node
            stack.extend(ast.iter_child_nodes(node))


def _external_modules(tree: ast.AST) -> set[str]:
    """The names ``tree`` binds by importing a module from outside the project."""
    return {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name.split(".")[0] not in PROJECT_MODULES
    }


def _uses(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """The names and attribute names read in ``tree``, less those under
    ``skip``, with the names inside string annotations.  An attribute read
    off an outside module, such as ``np.clip``, names none of ours."""
    external = _external_modules(tree)
    names: set[str] = set()
    for node in _nodes(tree, skip):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and not (
            isinstance(node.value, ast.Name) and node.value.id in external
        ):
            names.add(node.attr)
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                names |= _referenced(ast.parse(annotation.value, mode="eval"))
    return names


def _attributes(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """The attribute names read in ``tree``, less those under ``skip``."""
    return {node.attr for node in _nodes(tree, skip) if isinstance(node, ast.Attribute)}


def unused_definitions(source: str, elsewhere: set[str]) -> list[str]:
    """The module-level functions and classes of ``source`` that neither the
    rest of the module nor ``elsewhere``, the names other files use, refers
    to, dunder hooks aside."""
    tree = ast.parse(source)
    return [
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in elsewhere
        and node.name not in _uses(tree, skip=node)
    ]


def unused_members(source: str, elsewhere: set[str]) -> list[str]:
    """``Class.name`` for each method and property of ``source``'s classes,
    dunder methods aside, that is read as an attribute neither in the module
    outside its own body nor in ``elsewhere``, the attribute names other
    files read.  A plain name, such as a local variable, does not count."""
    tree = ast.parse(source)
    return [
        f"{cls.name}.{node.name}"
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in elsewhere
        and node.name not in _attributes(tree, skip=node)
    ]


def importers_of(source: str, module: str) -> list[str]:
    """The functions of ``source`` that import ``module`` or one of its
    submodules, by name, and ``<module>`` for an import outside every
    function (under ``TYPE_CHECKING`` too)."""
    tree = ast.parse(source)
    return sorted(
        getattr(scope, "name", "<module>")
        for scope, imports in _imports_by_scope(tree, tree, {}).items()
        if any(
            name == module or name.startswith(module + ".")
            for node in imports
            for name in ([node.module or ""] if isinstance(node, ast.ImportFrom)
                         else [alias.name for alias in node.names])
        )
    )


def test_only_the_oracles_import_numpy():
    found = {
        (path.name, scope)
        for path in SRC.glob("*.py") for scope in importers_of(path.read_text(), "numpy")
    }
    assert found == NUMPY_USERS


@pytest.mark.parametrize("module", ["dataclasses", "logging", "typing"])
def test_no_module_imports(module):
    found = {
        (path.name, scope)
        for path in SRC.glob("*.py") for scope in importers_of(path.read_text(), module)
    }
    assert found == set()


@pytest.mark.parametrize(
    "source,importers",
    [
        ("import numpy as np\n", ["<module>"]),
        ("from numpy import zeros\n", ["<module>"]),
        ("import numpy.linalg\n", ["<module>"]),
        ("from typing import TYPE_CHECKING\nif TYPE_CHECKING:\n    import numpy as np\n", ["<module>"]),
        ("class C:\n    import numpy\n", ["<module>"]),
        ("def f():\n    import numpy as np\n    return np\ndef g():\n    import math\n", ["f"]),
        ("def f():\n    def g():\n        from numpy import asarray\n", ["g"]),
        ("import numpyish\nfrom . import numpy_like\n", []),
    ],
)
def test_scan_finds_numpy_importers(source, importers):
    assert importers_of(source, "numpy") == importers


@pytest.mark.parametrize(
    "source,module,found",
    [
        ("from dataclasses import dataclass\n", "dataclasses", ["<module>"]),
        ("def f():\n    import dataclasses\n    return dataclasses\n", "dataclasses", ["f"]),
        ("from typing import Iterator\n", "typing", ["<module>"]),
        ("class C:\n    def f(self):\n        import typing as t\n", "typing", ["f"]),
        ("from collections.abc import Iterator\nimport typing_extensions\n", "typing", []),
    ],
)
def test_scan_finds_importers_of_any_module(source, module, found):
    assert importers_of(source, module) == found


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


def test_every_definition_is_used():
    trees = {path: ast.parse(path.read_text()) for path in USERS}
    uses = {path: _uses(tree) for path, tree in trees.items()}
    attributes = {path: _attributes(tree) for path, tree in trees.items()}
    unused = set()
    for path in MODULES:
        elsewhere = set().union(*(names for other, names in uses.items() if other != path))
        unused.update(unused_definitions(path.read_text(), elsewhere))
        elsewhere = set().union(*(names for other, names in attributes.items() if other != path))
        unused.update(unused_members(path.read_text(), elsewhere))
    assert unused == set(KEPT_FOR_TESTS) | set(MEMBERS_KEPT_FOR_TESTS)


@pytest.mark.parametrize(
    "source,elsewhere,unused",
    [
        ("def f(): pass\n", set(), ["f"]),
        ("def f(): pass\n", {"f"}, []),
        ("def f(): pass\ng = f\n", set(), []),
        ("def f():\n    return f()\n", set(), ["f"]),  # its own body does not count
        ("class C:\n    def make(self) -> 'C': pass\n", set(), ["C"]),
        ("class C: pass\ndef f(x: 'C'): return x\n", {"f"}, []),
        ("from . import m\ndef f(): pass\nm.f\n", set(), []),  # an attribute read counts
        ("x = 1\n", set(), []),
        # A read off a project module counts; one off an outside module does not.
        ("import tempro\ndef f(): pass\ntempro.f\n", set(), []),
        ("import numpy as np\ndef clip(): pass\nnp.clip\n", set(), ["clip"]),
        ("import os.path\ndef sep(): pass\nos.sep\n", set(), ["sep"]),
        # The interpreter calls a module's dunder hooks (PEP 562).
        ("def __getattr__(name): pass\ndef __dir__(): return []\n", set(), []),
        ("def __f(): pass\ndef f__(): pass\n", set(), ["__f", "f__"]),
        ("def f():\n    def __getattr__(name): pass\n", set(), ["f"]),
    ],
)
def test_scan_finds_unused_definitions(source, elsewhere, unused):
    assert unused_definitions(source, elsewhere) == unused


@pytest.mark.parametrize(
    "source,elsewhere,unused",
    [
        ("class C:\n    def f(self): pass\n", set(), ["C.f"]),
        ("class C:\n    def f(self): pass\n", {"f"}, []),
        ("class C:\n    def f(self): pass\nC().f()\n", set(), []),
        ("class C:\n    def f(self):\n        return self.f()\n", set(), ["C.f"]),  # its own body does not count
        ("class C:\n    def f(self): pass\n    def g(self):\n        return self.f()\n", {"g"}, []),
        ("class C:\n    @property\n    def p(self): return 1\n", set(), ["C.p"]),
        ("class C:\n    @property\n    def p(self): return 1\nx = C().p\n", set(), []),
        ("class C:\n    def __init__(self): pass\n    def __str__(self): return ''\n", set(), []),
        ("class C:\n    class D:\n        def f(self): pass\n", set(), ["D.f"]),
        ("def make():\n    class C:\n        def f(self): pass\n    return C\n", set(), ["C.f"]),
        ("class C:\n    x = 1\n", set(), []),
        ("class C:\n    def f(self): pass\nf = 1\nprint(f)\n", set(), ["C.f"]),  # a plain name
    ],
)
def test_scan_finds_unused_members(source, elsewhere, unused):
    assert unused_members(source, elsewhere) == unused
