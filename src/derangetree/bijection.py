"""The correspondence between derangements and marked trees.

``forward`` maps a derangement of {0, ..., n-1} to an increasing tree of
size n with a marked vertex of rank 1; ``inverse`` recovers the unique
preimage.  ``CaseTag`` names the construction case that fires, and the two
classifiers expose the case analysis for either side.

Construction sketch for a derangement p on a label set S, writing
top = max S:

* top in a cycle of length >= 3: delete top, map the smaller derangement,
  then hang top under v = p^(-1)(top).  The mark stays put unless v was the
  only leaf child of the mark (C1cII), in which case v becomes the mark.
* top in a 2-cycle with j: drop that cycle and map the remaining
  derangement.  With mark k < j it is enough to hang j under k and top
  under j (C2b).  With k > j, ``case2a_restructure`` first inserts j on the
  root-to-k path and pulls subtrees under j until the walk from j meets k
  before any other rank-1 vertex; then top is hung under j (C2a).  Either
  way j is the mark.  ``_undo_restructure`` undoes one C2a level in O(n).
* |S| = 2 is the one base case.  Size 3 comes out of C1 on it, (0 1 2)
  by C1cII and (0 2 1) by C1a, and keeps only its tag, ``BASE3``.

The construction recurses on n, but it only ever compares labels, so a
smaller level can keep its labels instead of being renumbered onto
0..m-1.  Both directions therefore run as two loops over one mutable
structure.  ``forward`` peels top labels off the cycles, recording per
level the label that went and its anchor v or partner j, then grows the
tree back bottom up.  ``inverse`` peels top labels off the tree into a
list of cycle splices, then applies them bottom up.  The input is checked
once, at entry, and one tree or one permutation is built, on exit, from
its parent or successor map alone.  That object is valid by construction,
so it skips the validating constructor; ``_Draft`` and ``inverse`` give
the argument.

No rank table is kept: the construction only asks whether a vertex is a
leaf (rank 0), has a leaf child (rank 1) or neither (rank >= 2), which the
vertex's children tell.  Nor is the mark re-checked per level, because no
case can leave the mark without a leaf child.  In ``forward`` each level
hangs the fresh top under the new mark, keeps the old mark after seeing a
leaf child under it (C1cI), or leaves the mark's children alone (C1b);
``inverse`` argues its cases in its docstring.  The one ``MarkedTree``
built on exit checks the last mark.  User input takes the validating
paths: the ``CycleDecomposition`` and ``MarkedTree`` handed in were
checked when they were built, and ``case2a_restructure``, whose label j
comes from the caller, builds its result with the ``IncreasingTree``
constructor.
"""

from __future__ import annotations

import enum
from typing import Iterable

from .cycles import CycleDecomposition
from .errors import DomainError
from .trees import IncreasingTree, MarkedTree


class CaseTag(enum.Enum):
    """Which construction case governs a derangement or a marked tree."""

    BASE2 = "Base2"
    BASE3 = "Base3"
    C1A = "C1a"
    C1B = "C1b"
    C1C_I = "C1cI"
    C1C_II = "C1cII"
    C2A = "C2a"
    C2B = "C2b"

    def __str__(self) -> str:
        return self.value


class Relabeling:
    """Order isomorphism between a sorted label set and {0, ..., m-1}.

    ``forward`` compresses a label to its index; ``backward`` undoes it.
    """

    __slots__ = ("_labels", "_index")

    def __init__(self, labels: Iterable[int]):
        self._labels = tuple(sorted(labels))
        if len(set(self._labels)) != len(self._labels):
            raise DomainError("repeated label in relabeling domain")
        self._index = {x: i for i, x in enumerate(self._labels)}

    @property
    def labels(self) -> tuple[int, ...]:
        return self._labels

    def forward(self, x: int) -> int:
        try:
            return self._index[x]
        except KeyError:
            raise DomainError(f"label {x} outside relabeling domain") from None

    def backward(self, i: int) -> int:
        if not 0 <= i < len(self._labels):
            raise DomainError(f"index {i} outside range 0..{len(self._labels) - 1}")
        return self._labels[i]

    def __repr__(self) -> str:
        return f"Relabeling({self._labels!r})"


class _Draft:
    """A mutable tree under construction: ``parent`` maps every vertex but
    the root to its parent, ``children`` every vertex to a set of children.
    Nothing is validated here.

    ``freeze`` builds the image of ``forward_with_case`` from ``parent``
    alone, skipping the ``IncreasingTree`` constructor's checks.  They hold
    by construction: the input's ground set is checked to be 0..n-1, every
    label goes back into the tree once, and each edit keeps parents smaller
    than their children.  ``add_leaf`` hangs the current top, greater than
    every label already present, or hangs j under a smaller mark (C2b);
    ``_restructure`` inserts j below a path vertex smaller than it, or as the
    new root, and moves to j only subtrees whose roots exceed j.  So
    ``parent`` maps each of 1..n-1 to a smaller label.  ``case2a_restructure``
    takes j from the caller, so its result goes through the constructor.
    """

    __slots__ = ("parent", "children")

    def __init__(self, parent: dict[int, int], children: dict[int, set[int]]):
        self.parent = parent
        self.children = children

    @classmethod
    def of(cls, t: IncreasingTree) -> "_Draft":
        # t's own maps, read without a checked accessor call per vertex
        return cls(dict(t._parent), {v: set(c) for v, c in t._children.items()})

    def freeze(self) -> IncreasingTree:
        return IncreasingTree._standard(self.parent)

    def has_leaf_child(self, x: int) -> bool:
        """Whether ``x`` has rank 1."""
        children = self.children
        return any(not children[c] for c in children[x])

    def add_leaf(self, v: int, p: int) -> None:
        self.parent[v] = p
        self.children[p].add(v)
        self.children[v] = set()

    def drop_leaf(self, v: int) -> None:
        self.children[self.parent.pop(v)].remove(v)
        del self.children[v]

    def move(self, v: int, p: int) -> None:
        """Move the subtree rooted at ``v`` under ``p``."""
        self.children[self.parent[v]].remove(v)
        self.parent[v] = p
        self.children[p].add(v)


def _check_derangement(p: CycleDecomposition) -> None:
    if p.size < 2:
        raise DomainError(f"need at least two labels, got {p.size}")
    if p.ground_set != tuple(range(p.size)):
        raise DomainError(f"ground set must be 0..{p.size - 1}")
    if not p.is_derangement:
        raise DomainError(f"fixed point: {p.fixed_points()[0]}")


def forward_with_case(p: CycleDecomposition) -> tuple[MarkedTree, CaseTag]:
    """Map a derangement to its marked tree, along with the case that fired."""
    _check_derangement(p)
    n = p.size
    # p's own map, read without a checked ``image`` call per label
    succ = dict(p._succ)
    pred = dict(zip(succ.values(), succ))
    # top down: (top, anchor v or partner j, whether top was in a 2-cycle)
    levels: list[tuple[int, int, bool]] = []
    top = n - 1
    while len(succ) > 2:
        while top not in succ:
            top -= 1
        after, before = succ.pop(top), pred.pop(top)
        if after == before:
            del succ[after], pred[after]
            levels.append((top, after, True))
        else:
            succ[before], pred[after] = after, before
            levels.append((top, before, False))
        top -= 1
    a, b = sorted(succ)
    tree = _Draft({b: a}, {a: {b}, b: set()})
    mark, tag = a, CaseTag.BASE2
    # bottom up
    for top, x, paired in reversed(levels):
        if paired:
            if mark < x:
                tree.add_leaf(x, mark)
                tag = CaseTag.C2B
            else:
                _restructure(tree, x, mark)
                tag = CaseTag.C2A
            tree.add_leaf(top, x)
            mark = x
            continue
        tree.add_leaf(top, x)
        if x == mark:
            tag = CaseTag.C1A
        elif tree.parent.get(x) == mark:
            if tree.has_leaf_child(mark):
                tag = CaseTag.C1C_I
            else:
                tag, mark = CaseTag.C1C_II, x
        else:
            tag = CaseTag.C1B
    if n == 3:  # the chain (C1cII) or the star (C1a)
        tag = CaseTag.BASE3
    return MarkedTree(tree.freeze(), mark), tag


def forward(p: CycleDecomposition) -> MarkedTree:
    """The marked tree corresponding to derangement ``p``."""
    return forward_with_case(p)[0]


def classify_derangement(p: CycleDecomposition) -> CaseTag:
    """The construction case governing ``forward(p)``.

    The C1 subcases depend on the recursively built tree, so this performs
    the whole construction rather than inspecting ``p`` alone.
    """
    return forward_with_case(p)[1]


def case2a_restructure(t: IncreasingTree, j: int, k: int) -> IncreasingTree:
    """Insert ``j`` above the root-to-``k`` path and regroup under it.

    ``j`` takes the unique position on the path allowed by the increasing
    property (new root when it is below every path label).  Then, walking
    down toward ``k`` and re-evaluating ranks in the current tree at every
    step: a rank-1 vertex other than ``k`` surrenders the child subtree
    containing ``k`` to ``j``; a branching vertex of rank >= 2 keeps that
    subtree only when its root is the greatest child, and otherwise also
    surrenders it to ``j``.  The descent resumes at the moved (or kept)
    child and stops at ``k``.  Afterwards the walk from ``j`` meets ``k``
    before any other rank-1 vertex.
    """
    if k <= j:
        raise DomainError(f"mark {k} must exceed the inserted label {j}")
    if j in t:
        raise DomainError(f"label {j} already in tree")
    if not t.has_leaf_child(k):  # DomainError for an unknown k
        raise DomainError(f"vertex {k} has rank {t.rank(k)}, need rank 1")
    tree = _Draft.of(t)
    _restructure(tree, j, k)
    return IncreasingTree(tree.parent, tree.children)  # j comes from the caller


def _restructure(tree: _Draft, j: int, k: int) -> None:
    """``case2a_restructure`` in place, for j not in the tree, j < k and
    k of rank 1.

    Each move detaches the next path vertex from the current one, which
    the descent then leaves behind, so the vertices still to be visited
    keep their children and the ranks of the original tree serve.  A
    vertex with one child is not a leaf and has a non-leaf child, so it has
    rank >= 2 and keeps the subtree.
    """
    path = [k]
    while (above := tree.parent.get(path[-1])) is not None and above > j:
        path.append(above)
    path.reverse()
    if above is None:  # j becomes the root
        tree.parent[path[0]] = j
        tree.children[j] = {path[0]}
    else:
        tree.add_leaf(j, above)
        tree.move(path[0], j)
    for cur, c in zip(path, path[1:]):
        if tree.has_leaf_child(cur) or c != max(tree.children[cur]):
            tree.move(c, j)


def classify_tree(mt: MarkedTree) -> CaseTag:
    """The construction case that produced marked tree ``mt``.

    Decided by where top = n - 1 hangs relative to the mark m: under
    neither m nor a child of m (C1b); under a child of m (C1cI); under m as
    an only child, split by the rank of m's parent (C2b at rank 1, C1cII at
    rank 2); under m with siblings, split by whether some sibling is a leaf
    (C1a) or none is (C2a).  Ranks are evaluated in ``mt`` itself.
    """
    n = mt.size
    if not mt.tree.is_standard:
        raise DomainError("classification needs ground set 0..n-1")
    if n == 2:
        return CaseTag.BASE2
    if n == 3:
        return CaseTag.BASE3
    return _classify(_Draft(mt.tree._parent, mt.tree._children), mt.mark, n - 1)


def _classify(tree: _Draft, m: int, top: int) -> CaseTag:
    """``classify_tree`` for mark ``m`` of rank 1 and largest label ``top``,
    on at least three vertices.  It never writes to ``tree``, so it also
    reads an ``IncreasingTree``'s own maps, with tuple children, in place."""
    v = tree.parent[top]
    kids = tree.children[m]
    if v == m:
        if len(kids) == 1:
            return CaseTag.C2B if tree.has_leaf_child(tree.parent[m]) else CaseTag.C1C_II
        if any(not tree.children[c] for c in kids if c != top):
            return CaseTag.C1A
        return CaseTag.C2A
    if tree.parent.get(v) == m:
        return CaseTag.C1C_I
    return CaseTag.C1B


def _undo_restructure(tree: _Draft, m: int) -> int:
    """Undo ``_restructure`` that inserted ``m``, once top is deleted from
    under it; returns the old mark.

    The old mark k is the first rank-1 vertex in the walk from ``m``.  Each
    child of ``m`` but the smallest, a mover, goes back under the first
    vertex in its next smaller sibling's walk that can adopt it (rank 1, or
    a child greater than the mover); then ``m`` is spliced out in favor of
    its remaining child.  Both walks are descents to the greatest child:

    * C2a means no child of ``m`` but top is a leaf, and top is gone, so
      ``m`` and every mover are non-leaves.
    * A vertex the walk does not want has no leaf child, and in the anchor
      walk no child above the mover, so its greatest child is a non-leaf
      below the mover.  By induction the walk meets no leaf and never
      backtracks, on every tree that gets here, not only on images.
    * It stops, as labels increase, and each anchor is below its mover.
    * One call is O(n).  The k descent runs before any move, and each
      anchor descent in the subtree of the next smaller mover, which no
      earlier move touched.  So each vertex is visited at most once and
      its child set read at most twice.
    """
    k = m
    while not tree.has_leaf_child(k):
        k = max(tree.children[k])
    movers = sorted(tree.children[m])
    for i in range(len(movers) - 1, 0, -1):
        mover, anchor = movers[i], movers[i - 1]
        while not tree.has_leaf_child(anchor) and (greatest := max(tree.children[anchor])) < mover:
            anchor = greatest
        tree.move(mover, anchor)
    if m in tree.parent:
        tree.move(movers[0], tree.parent[m])
        tree.drop_leaf(m)
    else:  # m is the root
        del tree.parent[movers[0]], tree.children[m]
    return k


def inverse(mt: MarkedTree) -> CycleDecomposition:
    """Recover the unique derangement with ``forward(p) == mt``.

    The C1 cases delete top = n - 1 and splice it back into the recovered
    cycles right after its parent (C1cII: after the mark, re-marking the
    mark's parent).  C2b deletes top and the mark, re-marks the mark's
    parent, and adds the 2-cycle (mark, top).  C2a first undoes the
    regrouping (``_undo_restructure``), then proceeds as in C2b with the
    old mark.

    Each new mark has a leaf child: C1a, C1b and C1cI keep the mark and a
    leaf child of it other than top; C1cII and C2b re-mark the parent of a
    leaf; C2a re-marks a vertex found by its leaf child, which the
    regrouping leaves in place.  So every level is a valid marked tree; at
    size 3 that is the chain or the star, which C1cII or C1a peels to size 2.

    The result is built from its successor map without a check.  The map
    starts as the 2-cycle on the last two labels, and every splice adds
    only labels it does not hold yet: top, and for a 2-cycle the mark that
    the same level deleted.  So it stays a permutation without fixed
    points of the labels deleted so far, and ends as a derangement of all
    the tree's labels, 0..n-1.
    """
    t = mt.tree
    if not t.is_standard:
        raise DomainError("inverse needs ground set 0..n-1")
    n = t.size
    tree = _Draft.of(t)
    mark = mt.mark
    # top down: (top, anchor or partner, whether the splice is a 2-cycle)
    splices: list[tuple[int, int, bool]] = []
    top = n - 1
    while len(tree.children) > 2:
        while top not in tree.children:
            top -= 1
        tag = _classify(tree, mark, top)
        v = tree.parent[top]
        tree.drop_leaf(top)
        if tag is CaseTag.C1C_II:
            splices.append((top, mark, False))
            mark = tree.parent[mark]
        elif tag is CaseTag.C2B:
            splices.append((top, mark, True))
            m, mark = mark, tree.parent[mark]
            tree.drop_leaf(m)
        elif tag is CaseTag.C2A:
            splices.append((top, mark, True))
            mark = _undo_restructure(tree, mark)
        else:
            splices.append((top, v, False))
        top -= 1
    a, b = sorted(tree.children)
    succ = {a: b, b: a}
    # bottom up
    for top, x, paired in reversed(splices):
        if paired:
            succ[x], succ[top] = top, x
        else:
            succ[x], succ[top] = top, succ[x]
    return CycleDecomposition._from_succ(succ)
