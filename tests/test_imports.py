"""Every name a library module imports is used in that module, every
private module-level name (``_x``) is read somewhere in the package, and
only ``trees.py`` touches how an ``IncreasingTree`` stores itself.

``__init__.py`` is left out of the import check: it imports names to
re-export them.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "derangetree"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TREE_LAYOUT = {"_parent", "_children", "_labels"}


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


def layout_reads(source: str) -> list[str]:
    """Each use in ``source`` of an attribute named in ``TREE_LAYOUT`` on a
    receiver other than ``self``, as ``line: expression``.  A class may
    keep attributes of those names for itself, as ``Relabeling`` does."""
    uses = [node for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr in TREE_LAYOUT
            and not (isinstance(node.value, ast.Name) and node.value.id == "self")]
    return [f"{node.lineno}: {ast.unparse(node)}"
            for node in sorted(uses, key=lambda node: (node.lineno, node.col_offset))]


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


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "trees.py"],
                         ids=lambda p: p.name)
def test_tree_layout_stays_in_trees(path):
    # other modules see a tree through its public reads and its parent word
    assert layout_reads(path.read_text()) == []


def test_layout_read_is_caught():
    source = ("class Relabeling:\n"
              "    def labels(self): return self._labels\n"
              "def leaves(t): return [v for v, c in t._children.items() if not c]\n"
              "def word(tree): return [tree._parent[v] for v in tree.labels[1:]]\n"
              "def nested(mt): return mt.tree._labels\n")
    assert layout_reads(source) == ["3: t._children", "4: tree._parent", "5: mt.tree._labels"]
