"""Every name a library module imports is used in that module, and every
private module-level name (``_x``) is read somewhere in the package.

``__init__.py`` is left out of the import check: it imports names to
re-export them.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "derangetree"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in ``source`` that no expression reads."""
    module = ast.parse(source)
    imported = set()
    for node in ast.walk(module):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # ``import a.b`` binds ``a``
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
    used = {node.id for node in ast.walk(module) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def unused_private_names(sources: list[str]) -> list[str]:
    """Private names that a module in ``sources`` defines at its top level
    and that no module reads, by name, attribute or import."""
    defined, read = set(), set()
    for source in sources:
        module = ast.parse(source)
        for node in module.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(n.id for t in targets for n in ast.walk(t)
                               if isinstance(n, ast.Name))
        for node in ast.walk(module):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return sorted(name for name in defined - read
                  if name.startswith("_") and not name.startswith("__"))


def test_modules_found():
    assert {p.name for p in MODULES} >= {"bijection.py", "enumeration.py", "trees.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_caught():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from .errors import DomainError, InternalInvariantError\n"
              "raise DomainError(os.sep)\n")
    assert unused_imports(source) == ["InternalInvariantError"]


def test_no_unused_private_names():
    assert unused_private_names([p.read_text() for p in PACKAGE.glob("*.py")]) == []


def test_unused_private_name_is_caught():
    library = ("import os\n"
               "__all__ = ['run']\n"
               "_LIMIT, _dead = 8, 9\n"
               "class _Draft:\n"
               "    def _grow(self): return _LIMIT\n"
               "def _unused(): pass\n"
               "def run(): return os.sep\n")
    user = "from .library import _Draft\n"
    assert unused_private_names([library, user]) == ["_dead", "_unused"]
