"""Every name a kronmri module imports is used in that module, and every
private module-level name the package defines is read in the package.

Deleting a feature tends to leave its imports and helpers behind; these
gates find them. An import counts as used when the module's syntax tree
reads it anywhere (attribute bases such as `np` in `np.sum` included).
`from __future__` imports are exempt. A `_private` function, class or
variable defined at module level (dunder names aside) counts as read when
any module of the package loads it by name or as an attribute
(`T._apply`).

A third gate keeps one writer: every `open` whose mode writes is inside
`kten.write_file`, the function that writes a temporary file, syncs it and
renames it into place. A fourth keeps what a failed command leaves in one
module: every call that removes a file or directory is in `kten`, whose
`write_set` decides it. A fifth keeps strides numpy's: no module calls
`as_strided`, whose hand-set strides read past an array's end without a
word; a window view (`sliding_window_view`) is checked against its array.
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


def _opens_for_writing(call: ast.Call) -> bool:
    """`call` is `open` or `fdopen`, by name or as an attribute, with a mode
    that writes: one holding w, a, x or +, or one that is not a string
    literal (an `os.open` flag set included). No mode reads."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name not in ("open", "fdopen"):
        return False
    modes = call.args[1:2] + [kw.value for kw in call.keywords if kw.arg == "mode"]
    if not modes:
        return False
    mode = modes[0]
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return True
    return bool(set(mode.value) & set("wax+"))


def calling_scopes(source: str, accept) -> list[str]:
    """One entry per call in `source` that `accept` takes: the dotted name
    of the innermost enclosing function or class, or `<module>` at module
    level."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + [child.name]
            elif isinstance(child, ast.Call) and accept(child):
                found.append(".".join(scope) or "<module>")
            visit(child, inner)

    visit(ast.parse(source), [])
    return found


def write_openers(source: str) -> list[str]:
    """The functions of `source` that open a file for writing."""
    return calling_scopes(source, _opens_for_writing)


def test_one_function_opens_files_for_writing():
    """Every file kronmri writes goes through `kten.write_file`, which
    writes a temporary file, syncs it and renames it into place."""
    found = []
    for path in MODULES:
        with open(path) as fh:
            found += [f"{os.path.basename(path)}:{fn}" for fn in write_openers(fh.read())]
    assert found == ["kten.py:write_file"]


@pytest.mark.parametrize("source,openers", [
    ("def f(p):\n    return open(p, 'wb')\n", ["f"]),
    ("def f(p):\n    with open(p) as fh, open(p, 'rb'), open(p, mode='r'):\n        pass\n", []),
    ("open('x', mode='a')\n", ["<module>"]),
    ("def f(p, m):\n    open(p, m)\n    open(p, 'r+')\n", ["f", "f"]),
    ("import io, os\ndef f(p, fd):\n    io.open(p, 'x')\n    os.fdopen(fd, 'w')\n", ["f", "f"]),
    ("import os\ndef f(p):\n    os.open(p, os.O_WRONLY)\n", ["f"]),
    ("class A:\n    def save(self, p):\n        def g():\n            open(p, 'w')\n",
     ["A.save.g"]),
    ("def f(p):\n    return p.opener('w'), print(open)\n", []),
])
def test_the_gate_finds_writing_opens(source, openers):
    assert write_openers(source) == openers


_REMOVERS = {"unlink", "rmdir", "removedirs", "rmtree"}


def _removes_files(call: ast.Call) -> bool:
    """`call` removes a file or directory: `os.remove`, a bare `remove`
    (imported from os), or `unlink`, `rmdir`, `removedirs` or `rmtree` by
    name or as an attribute (`shutil.rmtree`, `Path.unlink`). Lists, sets
    and write sets have a `remove` method too; those do not count."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id in _REMOVERS | {"remove"}
    if not isinstance(func, ast.Attribute):
        return False
    if func.attr == "remove":
        return isinstance(func.value, ast.Name) and func.value.id == "os"
    return func.attr in _REMOVERS


def file_removers(source: str) -> list[str]:
    """The functions of `source` that remove a file or directory."""
    return calling_scopes(source, _removes_files)


def test_only_kten_removes_files():
    """What a failed command leaves is decided in one place, `kten`'s
    write set: no other module removes a file."""
    found = []
    for path in MODULES:
        with open(path) as fh:
            found += [f"{os.path.basename(path)}:{fn}" for fn in file_removers(fh.read())]
    assert found and [f for f in found if not f.startswith("kten.py:")] == []


@pytest.mark.parametrize("source,removers", [
    ("import os\ndef f(p):\n    os.remove(p)\n", ["f"]),
    ("import os, shutil\ndef f(p):\n    os.unlink(p)\n    os.rmdir(p)\n"
     "    os.removedirs(p)\n    shutil.rmtree(p)\n", ["f", "f", "f", "f"]),
    ("from os import remove\nfrom shutil import rmtree\nremove('x')\nrmtree('y')\n",
     ["<module>", "<module>"]),
    ("import pathlib\nclass A:\n    def g(self, p):\n        pathlib.Path(p).unlink()\n",
     ["A.g"]),
    ("import os\ndef f(items, ws, p):\n    items.remove(p)\n    ws.remove(p)\n"
     "    os.path.exists(p)\n    os.replace(p, p)\n", []),
    ("import contextlib, os\n@contextlib.contextmanager\ndef f(paths):\n    try:\n"
     "        yield\n    except BaseException:\n        for p in paths:\n"
     "            os.remove(p)\n        raise\n", ["f"]),
])
def test_the_gate_finds_file_removals(source, removers):
    assert file_removers(source) == removers


def _calls_as_strided(call: ast.Call) -> bool:
    """`call` is `as_strided`, by name or as an attribute."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    return name == "as_strided"


def strided_views(source: str) -> list[str]:
    """The functions of `source` that call `as_strided`."""
    return calling_scopes(source, _calls_as_strided)


def test_no_module_calls_as_strided():
    found = []
    for path in MODULES:
        with open(path) as fh:
            found += [f"{os.path.basename(path)}:{fn}" for fn in strided_views(fh.read())]
    assert found == []


@pytest.mark.parametrize("source,callers", [
    ("import numpy as np\ndef f(a):\n    return np.lib.stride_tricks.as_strided(a, (1,), (8,))\n",
     ["f"]),
    ("from numpy.lib.stride_tricks import as_strided\nas_strided(a, (1,), (8,))\n",
     ["<module>"]),
    ("import numpy as np\ndef f(a):\n    return np.lib.stride_tricks.sliding_window_view(a, 2)\n",
     []),
])
def test_the_gate_finds_as_strided_calls(source, callers):
    assert strided_views(source) == callers
