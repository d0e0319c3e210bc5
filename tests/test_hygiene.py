"""Source hygiene: no module of the package imports a name it never uses,
no module-level ``_private`` name is left with no user, no module reads
another module's private name, the program imports nothing but the
standard library and numpy, the number of parameters with a default
value does not grow, and in the engine only ``_split`` asks for the
block worker.

No linter is a dependency of the project, so these are ``ast`` scans. A
module-level import counts as used when the name it binds appears as a
name anywhere in the module, string annotations included. ``__init__.py``
(re-exports), ``from __future__`` imports and lines marked ``# noqa``
are exempt. A private function, class or constant counts as used when
some module of the package loads it, reads it as an attribute or
imports it.
"""

import ast
import os
import subprocess
import sys
from collections import Counter
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


def _private_definitions(tree: ast.Module) -> list:
    """(line, name) of every module-level ``_name`` def, class or assignment."""
    out = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, ast.Assign):
            names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            names = [stmt.target.id]
        else:
            continue
        out += [(stmt.lineno, n) for n in names if n.startswith("_") and not n.startswith("__")]
    return out


def private_orphans(paths) -> list:
    """Module-level private names that no module in ``paths`` references."""
    trees = {p: ast.parse(p.read_text()) for p in paths}
    refs = Counter()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                refs[node.id] += 1
            elif isinstance(node, ast.Attribute):
                refs[node.attr] += 1
            elif isinstance(node, ast.ImportFrom):
                refs.update(alias.name for alias in node.names)
    return [f"{p.name}:{line}: {name}" for p, tree in trees.items()
            for line, name in _private_definitions(tree) if not refs[name]]


def test_no_private_orphans():
    assert private_orphans(sorted(SRC.glob("*.py"))) == []


def test_scan_finds_a_private_orphan(tmp_path):
    a, b = tmp_path / "a.py", tmp_path / "b.py"
    a.write_text("_LIMIT = 3\n_UNUSED: int = 4\n\n"
                 "def _helper(x):\n    return x + _LIMIT\n\n"
                 "def _orphan():\n    return _orphan\n\n"
                 "def _dead():\n    pass\n\n"
                 "class _Gone:\n    pass\n")
    b.write_text("from a import _helper\nimport a\n\n"
                 "def f(y):\n    return a._orphan() or _helper(y)\n")
    assert private_orphans([a, b]) == ["a.py:2: _UNUSED", "a.py:10: _dead", "a.py:13: _Gone"]


def foreign_imports(path: Path) -> list:
    """Imports anywhere in a module that are neither the standard library,
    numpy nor the package itself."""
    allowed = set(sys.stdlib_module_names) | {"numpy", "dosediff"}
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        out += [f"{path.name}:{node.lineno}: {n}" for n in names
                if n.split(".")[0] not in allowed]
    return out


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_imports_only_stdlib_and_numpy(path):
    assert foreign_imports(path) == []


def test_scan_finds_a_foreign_import(tmp_path):
    mod = tmp_path / "m.py"
    mod.write_text("import os.path\nimport numpy as np\nfrom . import tensor\n"
                   "from dosediff.config import ModelConfig\nimport scipy.special\n\n"
                   "def f():\n    from scipy import ndimage\n    return ndimage\n")
    assert foreign_imports(mod) == ["m.py:5: scipy.special", "m.py:8: scipy"]


def test_no_module_loads_scipy():
    # in a fresh process, since the tests themselves import scipy as an oracle
    names = ", ".join(f"dosediff.{p.stem}" for p in MODULES if p.stem != "__main__")
    code = (f"import sys; import dosediff, {names}; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert out.stdout.strip() == "[]"


def _module_aliases(tree: ast.Module) -> set:
    """Names a module binds to a module of the package."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                (node.level and not node.module) or node.module == "dosediff"):
            out |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            out |= {alias.asname for alias in node.names
                    if alias.asname and alias.name.startswith("dosediff.")}
    return out


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def foreign_private_reads(path: Path) -> list:
    """Private names a module takes from another module of the package:
    ``from .m import _x`` or ``alias._x`` where alias is a package module."""
    tree = ast.parse(path.read_text())
    aliases = _module_aliases(tree)
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module == "dosediff"
                                                 or (node.module or "").startswith("dosediff.")):
            out += [(node.lineno, alias.name) for alias in node.names if _private(alias.name)]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in aliases and _private(node.attr)):
            out.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return [f"{path.name}:{line}: {name}" for line, name in sorted(out)]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_module_reads_another_modules_private_name(path):
    assert foreign_private_reads(path) == []


def test_scan_finds_a_foreign_private_read(tmp_path):
    mod = tmp_path / "m.py"
    mod.write_text("from . import train as TR\nfrom .tensor import Tensor, _make\n"
                   "import dosediff.phantom as P\nfrom dosediff import config\n\n"
                   "def f(x):\n    return (TR._check(x), P._blur, config._rule, TR.ok,\n"
                   "            x._own, TR.__name__, Tensor._slot)\n")
    assert foreign_private_reads(mod) == ["m.py:2: _make", "m.py:7: P._blur",
                                          "m.py:7: TR._check", "m.py:7: config._rule"]


# Function parameters in the package that have a default value. Lower it
# when a default goes; a new one must replace an old one.
SETTABLE_PARAMETERS = 13


def settable_parameters(paths) -> int:
    """The number of function parameters (lambdas included) with a default."""
    count = 0
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                count += len(args.defaults) + sum(d is not None for d in args.kw_defaults)
    return count


def test_settable_parameters_do_not_grow():
    assert settable_parameters(sorted(SRC.glob("*.py"))) <= SETTABLE_PARAMETERS


def test_scan_counts_settable_parameters(tmp_path):
    mod = tmp_path / "m.py"
    mod.write_text("def f(a, b=1, *args, c=2, d, **kw):\n    pass\n\n"
                   "class K:\n    def m(self, x=None, y=()):\n        pass\n\n"
                   "g = lambda z=0: z\n\nasync def h(q, r=3):\n    pass\n")
    assert settable_parameters([mod]) == 6


def worker_callers(path: Path) -> list:
    """The top-level definitions of a module, other than ``_split``, that
    call ``_block_worker``: every blocked kernel must deal its blocks
    through the one loop of ``_split``."""
    out = []
    for top in ast.parse(path.read_text()).body:
        if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) and top.name == "_split":
            continue
        out += [f"{path.name}:{node.lineno}: {getattr(top, 'name', '<module>')}"
                for node in ast.walk(top)
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "_block_worker"]
    return out


def test_only_split_calls_the_block_worker():
    assert worker_callers(SRC / "tensor.py") == []


def test_scan_finds_a_block_worker_caller(tmp_path):
    mod = tmp_path / "m.py"
    mod.write_text("def _split(body, blocks):\n    return _block_worker()\n\n"
                   "def kernel(x):\n    def run():\n        return _block_worker()\n"
                   "    return run, _split\n\nclass K:\n    def m(self):\n"
                   "        _block_worker()\n\nW = _block_worker\n")
    assert worker_callers(mod) == ["m.py:6: kernel", "m.py:11: K"]
