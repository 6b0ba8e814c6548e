"""Every name a kronmri module imports is used in that module.

Deleting a feature tends to leave its imports behind; this gate finds
them. A name counts as used when the module's syntax tree reads it
anywhere (attribute bases such as `np` in `np.sum` included).
`from __future__` imports are exempt.
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
