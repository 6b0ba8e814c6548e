"""Every name a kronmri module imports is used in that module, and every
private module-level name the package defines is read in the package.

Deleting a feature tends to leave its imports and helpers behind; these
gates find them. An import counts as used when the module's syntax tree
reads it anywhere (attribute bases such as `np` in `np.sum` included).
`from __future__` imports are exempt. A `_private` function, class or
variable defined at module level (dunder names aside) counts as read when
any module of the package loads it by name or as an attribute
(`T._apply`).
"""

import ast
import glob
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "kronmri")
MODULES = sorted(glob.glob(os.path.join(SRC, "*.py")))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # `import a.b` binds `a`
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def test_the_package_has_modules():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_every_import_is_used(path):
    with open(path) as fh:
        assert unused_imports(fh.read()) == []


@pytest.mark.parametrize("source,unused", [
    ("import csv\nimport json\njson.dumps(1)\n", ["line 1: csv"]),
    ("import numpy as np\nfrom .a import b, c as d\nnp.sum(d)\n", ["line 2: b"]),
    ("import os.path\nos.sep\n", []),
    ("from __future__ import annotations\n", []),
    ("from .tensor import Tensor\ndef f(x: Tensor): pass\n", []),
])
def test_the_gate_finds_unused_names(source, unused):
    assert unused_imports(source) == unused


def _module_level(stmts):
    """The statements run at module level: `stmts` and the bodies of the
    `if`, `try` and `with` blocks among them, not function or class bodies."""
    for stmt in stmts:
        yield stmt
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for field in ("body", "orelse", "finalbody", "handlers"):
                yield from _module_level(getattr(stmt, field, []))


def dead_helpers(sources: list[str]) -> list[str]:
    """The `_private` names that some source defines at module level and no
    source reads, in sorted order."""
    defined, read = set(), set()
    for source in sources:
        tree = ast.parse(source)
        for stmt in _module_level(tree.body):
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(stmt.name)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                defined.update(node.id for target in targets for node in ast.walk(target)
                               if isinstance(node, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(name for name in defined - read
                  if name.startswith("_") and not name.startswith("__"))


def test_every_private_helper_is_read():
    sources = []
    for path in MODULES:
        with open(path) as fh:
            sources.append(fh.read())
    assert dead_helpers(sources) == []


@pytest.mark.parametrize("sources,dead", [
    (["def _f(): pass\n"], ["_f"]),
    (["def _f(): pass\ndef g(): return _f()\n"], []),
    (["_A, (_B, c) = 1, (2, 3)\nprint(_A, c)\n"], ["_B"]),
    (["class _C: pass\n_n: int = 0\n"], ["_C", "_n"]),
    (["if True:\n    _X = 1\nelse:\n    _Y = 2\n_X\n"], ["_Y"]),
    (["def _f(): pass\n", "from . import a as T\nT._f()\n"], []),
    (["def f():\n    _local = 1\n", "__all__ = []\n_x = 1\n_x = 2\n"], ["_x"]),
    (["_total = 0\ndef add():\n    global _total\n    _total += 1\n"], ["_total"]),
])
def test_the_gate_finds_unread_helpers(sources, dead):
    assert dead_helpers(sources) == dead
