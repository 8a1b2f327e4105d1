"""Every name a library module imports is used in that module, every
private module-level name (``_x``) is read somewhere in the package, only
``trees.py`` touches how an ``IncreasingTree`` stores itself, only the
draft's constructor and the two level loops of ``bijection.py`` change
its leaf counts, ``enumeration.py`` changes a draft only through those
three, and every module parses as the oldest Python that
``pyproject.toml`` admits, 3.10.

``__init__.py`` is left out of the import check: it imports names to
re-export them.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "derangetree"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TREE_LAYOUT = {"_parent", "_parent_word", "_children", "_labels"}
DRAFT_FIELDS = ("parent", "children", "leaves")
# the draft edits of bijection.py other than _grow and _peel
DRAFT_EDITS = {"move", "replace", "_restructure", "_undo_restructure"}


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


def draft_writers(source: str, fields=("leaves",)) -> list[str]:
    """The functions in ``source``, by qualified name, that change an item
    of one of the draft's ``fields``: store into ``<field>[...]`` or
    ``<x>.<field>[...]``, as the target of an assignment or an augmented
    assignment such as ``+=``, or call a method on such an item, as
    ``children[v].add(top)`` does.  ``<module>`` stands for a change
    outside any function."""
    writers = set()

    def is_item(node):
        return isinstance(node, ast.Subscript) and (
            isinstance(node.value, ast.Name) and node.value.id in fields
            or isinstance(node.value, ast.Attribute) and node.value.attr in fields)

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, child.name if scope == "<module>" else f"{scope}.{child.name}")
                continue
            if isinstance(child, ast.Assign):
                targets = child.targets
            elif isinstance(child, (ast.AugAssign, ast.AnnAssign)):
                targets = [child.target]
            else:
                targets = []
            if (any(is_item(t) for target in targets for t in ast.walk(target))
                    or isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and is_item(child.func.value)):
                writers.add(scope)
            visit(child, scope)

    visit(ast.parse(source), "<module>")
    return sorted(writers)


def called_names(source: str) -> set[str]:
    """The names that ``source`` calls, as ``f(...)`` or ``x.f(...)``."""
    return {node.func.attr if isinstance(node.func, ast.Attribute) else node.func.id
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Attribute, ast.Name))}


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


def test_leaf_counts_change_only_in_the_draft_and_the_level_loops():
    # forward_with_case, inverse and the verifier's walk run the levels
    # through _grow and _peel, not through a copy of their bodies
    source = (PACKAGE / "bijection.py").read_text()
    assert draft_writers(source) == ["_Draft.__init__", "_grow", "_peel"]


def test_the_walk_changes_drafts_only_through_the_level_steps():
    # enumeration.py builds drafts with _Draft(...) and changes them with
    # _grow and _peel alone, so the walk checks the shipped level code
    source = (PACKAGE / "enumeration.py").read_text()
    assert draft_writers(source, DRAFT_FIELDS) == []
    assert called_names(source) & DRAFT_EDITS == set()
    assert called_names(source) >= {"_Draft", "_grow", "_peel"}


def test_leaf_count_write_is_caught():
    source = ("class _Draft:\n"
              "    def __init__(self, n):\n"
              "        self.leaves = [0] * n\n"
              "def forward(tree, x):\n"
              "    leaves = tree.leaves\n"
              "    leaves[x] += 1\n"
              "def inverse(tree, x):\n"
              "    def step(y):\n"
              "        tree.parent[y], tree.leaves[y] = x, 0\n"
              "    return tree.leaves[x] > 0\n"
              "LEAVES = {}\n"
              "LEAVES[0] = leaves = [1]\n"
              "leaves[0] -= 1\n")
    assert draft_writers(source) == ["<module>", "forward", "inverse.step"]


def test_draft_write_is_caught():
    source = ("def hang(tree, top, x):\n"
              "    tree.children[x].add(top)\n"
              "def unhang(children, top, x):\n"
              "    children[x].discard(top)\n"
              "def reparent(tree, v, p):\n"
              "    parent = tree.parent\n"
              "    parent[v] = p\n"
              "def reads(tree, v):\n"
              "    return len(tree.children[v]), tree.parent[v], set(tree.children[v])\n"
              "def edits(tree, v):\n"
              "    tree.move(v, 0)\n"
              "    _restructure(tree, v, 1)\n")
    assert draft_writers(source, DRAFT_FIELDS) == ["hang", "reparent", "unhang"]
    assert draft_writers(source) == []
    assert called_names(source) & DRAFT_EDITS == {"move", "_restructure"}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(), feature_version=(3, 10))


def test_newer_syntax_is_caught():
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"  # 3.11
    ast.parse(source)
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=(3, 10))
