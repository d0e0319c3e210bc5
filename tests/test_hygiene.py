"""Source hygiene: no module of the package imports a name it never uses.

No linter is a dependency of the project, so this is an ``ast`` scan. A
module-level import counts as used when the name it binds appears as a
name anywhere in the module, string annotations included. ``__init__.py``
(re-exports), ``from __future__`` imports and lines marked ``# noqa``
are exempt.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "dosediff"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _used_names(tree: ast.AST) -> set:
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for ann in annotations:
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            names |= _used_names(ast.parse(ann.value, mode="eval"))
    return names


def unused_imports(path: Path) -> list:
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    used = _used_names(tree)
    unused = []
    for stmt in tree.body:
        if not isinstance(stmt, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        if "# noqa" in lines[stmt.lineno - 1]:
            continue
        for alias in stmt.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in used:
                unused.append(f"{path.name}:{stmt.lineno}: {bound}")
    return unused


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_scan_finds_an_unused_import(tmp_path):
    mod = tmp_path / "m.py"
    mod.write_text("from __future__ import annotations\n"
                   "import os\nimport sys  # noqa\n"
                   "from typing import List, Optional\n\n"
                   "def f(x: 'Optional[int]') -> List[int]:\n    return [x]\n")
    assert unused_imports(mod) == ["m.py:2: os"]
