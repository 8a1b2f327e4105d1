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
  way j is the mark.  ``_undo_restructure`` undoes one C2a level.
* |S| = 2 is the one base case.  Size 3 comes out of C1 on it, (0 1 2)
  by C1cII and (0 2 1) by C1a, and keeps only its tag, ``BASE3``.

The construction recurses on n, but it only ever compares labels, so both
directions run as two loops over one ``_Draft`` on the original labels.
``forward`` peels top labels off the cycles with ``_levels``, recording per
level the label that went and its anchor v or partner j, then grows the
tree back bottom up with ``_grow``; ``inverse`` peels top labels off the
tree into cycle splices with ``_peel``, then applies them bottom up.  The
input is checked once, at entry, and the output is built once, on exit,
from its parent word or successor map without the validating
constructors; ``_Draft``, ``_grow`` and ``_peel`` argue that it is valid.
No level re-checks the mark, and neither does the finished image:
``_grow`` hangs top under the new mark, keeps the old one after seeing a
leaf child under it (C1cI) or leaves its children alone (C1b), and
``_peel`` argues its cases.  ``_classify`` gives the trace each case
leaves on the tree.

Cost.  The construction only asks whether a vertex is a leaf, has a leaf
child (rank 1) or neither; ``_Draft`` counts leaf children, so each
question is one read.  The counts change only where a leaf comes or goes,
and ``_grow`` and ``_peel`` update them in place, each in one loop over
all the levels it is given: a direction makes one call, not one per
level.  Child sets are scanned only by ``max`` in
``_restructure`` and ``max``/``sorted`` in ``_undo_restructure``: those of
j and of the path vertices strictly between j and k, at most n labels per
call.  Such a path vertex ends below j and never again above the mark,
which only moves to a former leaf, a fresh label or an inserted j above
it.  So each vertex is on such a path once per run at most and changes
parent at most twice, as a path vertex and as k, which puts it in a
bounded number of scanned child sets; an undo scans those of the level
it undoes.  ``forward`` and ``inverse`` take O(n) list and set operations
on every input.
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

    # members are singletons compared by identity; Enum's hash is Python code
    __hash__ = object.__hash__


# read as globals by _case, _classify and _peel: ``CaseTag.C1A`` is a slow metaclass hook
BASE2, BASE3, C1A, C1B, C1C_I, C1C_II, C2A, C2B = CaseTag


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
    """A mutable tree on labels in 0..n-1, in lists indexed by label:
    ``parent`` (-1 at the root), ``children`` (a set, None for an absent
    label) and ``leaves``, the count of leaf children, which is positive
    exactly at rank 1.  Nothing is validated here.

    The leaf counts are kept where a leaf comes or goes, and only in three
    places: the constructor, ``_grow`` and ``_peel``, whose loops update
    them inline.  ``move`` and ``replace`` change no count.

    ``forward_with_case`` builds its image from the parent word
    ``parent[1:]`` alone, skipping the ``IncreasingTree`` constructor's
    checks.  They hold by construction: the ground set is checked to be
    0..n-1, every label goes back into the tree once, and each edit keeps
    parents smaller than their children.  ``_grow`` hangs the current top,
    greater than every label present, or j under a smaller mark (C2b);
    ``_restructure`` inserts j below a smaller path vertex, or as the
    root, and moves to j only subtrees whose roots exceed j.
    ``case2a_restructure`` takes j from the caller, so its result goes
    through the constructor.
    """

    __slots__ = ("parent", "children", "leaves")

    def __init__(self, n: int, root: int, edges: Iterable[tuple[int, int]]):
        """The tree ``root`` alone on labels below ``n``, then each edge
        ``(v, p)`` in turn, hanging ``v`` as a leaf under ``p``, so ``p``
        must be placed already."""
        parent, children, leaves = self.parent, self.children, self.leaves = (
            [-1] * n, [None] * n, [0] * n)
        children[root] = set()
        for v, p in edges:
            siblings = children[p]
            if not siblings and (above := parent[p]) >= 0:  # p was a leaf
                leaves[above] -= 1
            siblings.add(v)
            leaves[p] += 1
            parent[v], children[v] = p, set()

    @classmethod
    def of(cls, t: IncreasingTree) -> "_Draft":
        """A copy of ``t`` on 0..n-1; ascending labels place each parent first."""
        return cls(t.size, 0, enumerate(t._word(), 1))

    def move(self, v: int, p: int) -> None:
        """Move the subtree rooted at ``v`` under ``p``.  No count changes:
        ``v`` and ``p`` are non-leaves, and ``v``'s parent keeps a child."""
        self.children[self.parent[v]].remove(v)
        self.children[p].add(v)
        self.parent[v] = p

    def replace(self, v: int, w: int) -> None:
        """Put ``w`` in ``v``'s place; both are or become non-leaves, so no count changes."""
        above = self.parent[w] = self.parent[v]
        if above >= 0:
            siblings = self.children[above]
            siblings.remove(v)
            siblings.add(w)


def _check_derangement(p: CycleDecomposition) -> None:
    if (n := p.size) < 2:
        raise DomainError(f"need at least two labels, got {n}")
    # a permutation's keys are distinct nonnegative integers, so they are
    # 0..n-1 exactly when the largest is n-1
    if max(p._succ) != n - 1:
        raise DomainError(f"ground set must be 0..{n - 1}")
    if not p.is_derangement:
        raise DomainError(f"fixed point: {p.fixed_points()[0]}")


def forward_with_case(p: CycleDecomposition) -> tuple[MarkedTree, CaseTag]:
    """Map a derangement to its marked tree and the case that fired, which
    is read off the finished tree as ``classify_tree`` reads it.

    The image is marked without ``MarkedTree``'s check, because the base
    mark a holds the leaf b and ``_grow`` keeps the mark, a label and so
    an int, at rank 1.  ``verify_bijection`` does not rely on this: a
    wrong mark gives a key that names no marked tree, so with as many
    images as marked trees the coverage scan finds a marked tree that no
    image hits.
    """
    _check_derangement(p)
    n = p.size
    levels = _levels(p)
    b, a, _ = levels.pop()  # the last 2-cycle, which is the base
    tree = _Draft(n, a, [(b, a)])
    mark = _grow(tree, a, reversed(levels))
    image = IncreasingTree._standard(tree.parent[1:])
    return MarkedTree._trusted(image, mark), _case(tree, mark, n)


def _levels(p: CycleDecomposition) -> list[tuple[int, int, bool]]:
    """The levels of derangement ``p`` of 0..n-1, top down, as
    ``(top, x, paired)``: for each top = n-1, ..., 1 still in the cycles,
    x is the anchor v = p^(-1)(top) that top leaves, or, paired, its
    partner j in a 2-cycle that both leave.  The last is the base pair."""
    n = p.size
    # p's own map, without a checked ``image`` call; -1 marks a peeled partner
    succ, pred = [0] * n, [0] * n
    for x, y in p._succ.items():
        succ[x], pred[y] = y, x
    levels: list[tuple[int, int, bool]] = []
    for top in range(n - 1, 0, -1):
        if (after := succ[top]) < 0:
            continue
        before = pred[top]
        if after == before:
            succ[after] = -1
            levels.append((top, after, True))
        else:
            succ[before], pred[after] = after, before
            levels.append((top, before, False))
    return levels


def _grow(tree: _Draft, mark: int, levels: Iterable[tuple[int, int, bool]]) -> int:
    """Hang each of ``levels``, bottom up, on ``tree`` marked at ``mark``
    and return the new mark.  A level ``(top, x, paired)`` of ``_levels``
    hangs top, greater than every label present, under x, which is new to
    the tree when paired.

    The mark stays at rank 1.  A level hangs top, a new leaf, under x, and
    only x can stop being a leaf.  C2, either way, and C1cII make x the
    mark, which then holds top.  In C1a x is the mark and gains top; in
    C1cI x is a child of the mark, which keeps a leaf child other than x;
    in C1b x is not a child of the mark, whose children stay as they were.
    """
    parent, children, leaves = tree.parent, tree.children, tree.leaves
    # top goes under x, which becomes the mark in C2, and in C1cII, where x
    # was the mark's only leaf child
    for top, x, paired in levels:
        if paired:
            if mark < x:  # C2b: x goes under the mark, which keeps its leaf count
                children[mark].add(x)
                parent[x], children[x] = mark, set()
            else:
                _restructure(tree, x, mark)
            leaves[x] = 1  # top: C2b gives x no other child, C2a only non-leaves
            mark = x
        else:
            if not children[x]:  # x is a leaf, so not the root
                leaves[parent[x]] -= 1
            leaves[x] += 1
            if parent[x] == mark and not leaves[mark]:
                mark = x
        children[x].add(top)
        parent[top], children[top] = x, set()
    return mark


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
    down toward ``k``: a rank-1 vertex other than ``k`` surrenders the child
    subtree containing ``k`` to ``j``, and a vertex of rank >= 2 keeps it
    only when its root is the greatest child.  Afterwards the walk from
    ``j`` meets ``k`` before any other rank-1 vertex.  ``t`` may hold any
    labels; the work is done on their positions among them and ``j``.
    """
    if k <= j:
        raise DomainError(f"mark {k} must exceed the inserted label {j}")
    if j in t:
        raise DomainError(f"label {j} already in tree")
    if not t.has_leaf_child(k):  # DomainError for an unknown k
        raise DomainError(f"vertex {k} has rank {t.rank(k)}, need rank 1")
    labels = sorted([*t.labels, j])
    index = dict(zip(labels, range(len(labels)))).__getitem__
    edges = zip(map(index, t.labels[1:]), map(index, t._word()))  # ascending: parents first
    tree = _Draft(len(labels), index(t.root), edges)
    _restructure(tree, index(j), index(k))
    parent = {labels[v]: labels[p] for v, p in enumerate(tree.parent) if p >= 0}
    return IncreasingTree(parent, labels)  # j comes from the caller


def _restructure(tree: _Draft, j: int, k: int) -> None:
    """``case2a_restructure`` in place, for j not in the tree, j < k and
    k of rank 1.  Each move detaches the next path vertex from the current
    one, which the descent then leaves behind, so the vertices still to be
    visited keep their children and their leaf counts."""
    path = [k]
    while (above := tree.parent[path[-1]]) > j:  # the root's -1 is below j
        path.append(above)
    path.reverse()
    tree.replace(head := path[0], j)
    tree.parent[head], tree.children[j] = j, {head}
    for cur, c in zip(path, path[1:]):
        if tree.leaves[cur] or c != max(tree.children[cur]):
            tree.move(c, j)


def classify_tree(mt: MarkedTree) -> CaseTag:
    """The construction case that produced marked tree ``mt``, read off
    where top = n - 1 hangs relative to the mark; ``_classify`` gives the
    trace that each case leaves."""
    if not mt.tree.is_standard:
        raise DomainError("classification needs ground set 0..n-1")
    return _case(_Draft.of(mt.tree), mt.mark, mt.size)


def _case(tree: _Draft, m: int, n: int) -> CaseTag:
    """The case of mark ``m`` on ``tree``, the labels 0..n-1."""
    if n > 3:
        return _classify(tree, m, n - 1)
    return BASE3 if n == 3 else BASE2


def _classify(tree: _Draft, m: int, top: int) -> CaseTag:
    """The one test of the six cases, for mark ``m`` of rank 1 and largest
    label ``top`` on at least three vertices, so ``m`` over top alone is not
    the root.  Top under ``m`` is a leaf child, so a second one is a leaf sibling.

    ``forward`` records no case; ``_case`` reads it off the finished tree
    with this test, as ``_peel`` does per level.  With v = parent(top),
    each case leaves a trace only its branch takes:

    * C1a: top joins a leaf child m had, so m has two leaf children or more.
    * C1b: v is neither m nor a child of m.
    * C1cI: v is a child of m.
    * C1cII: top is the only child of m = v, whose parent, the old mark,
      has no leaf child left.
    * C2b: top is the only child of m = j, under a smaller mark that keeps
      a leaf child besides j.
    * C2a: m = j holds top and only non-leaves, the path head and the
      moved path vertices (k or above it), so one leaf child among two or
      more.
    """
    parent = tree.parent
    v = parent[top]
    if v == m:
        if len(tree.children[m]) == 1:
            return C2B if tree.leaves[parent[m]] else C1C_II
        return C1A if tree.leaves[m] >= 2 else C2A
    if parent[v] == m:
        return C1C_I
    return C1B


def _undo_restructure(tree: _Draft, m: int) -> int:
    """Undo ``_restructure`` that inserted ``m``, once top is deleted from
    under it; returns the old mark.

    The old mark k is the first rank-1 vertex in the walk from ``m``.  Each
    child of ``m`` but the smallest, a mover, goes back under the first
    vertex in its next smaller sibling's walk that can adopt it (rank 1, or
    a child greater than the mover); then ``m``'s last child takes its
    place.  C2a means no child of ``m`` but top is a leaf, so ``m`` and each
    mover are non-leaves.  A vertex a walk does not want has no leaf child,
    and in the anchor walk no child above the mover, so its greatest child
    is a non-leaf below the mover: both walks are descents to the greatest
    child that meet no leaf, stop and keep each anchor below its mover, on
    every tree that gets here.  Each runs in a subtree no earlier move
    touched, so a call visits each vertex at most once.
    """
    k = m
    while not tree.leaves[k]:
        k = max(tree.children[k])
    movers = sorted(tree.children[m])
    for i in range(len(movers) - 1, 0, -1):
        mover, anchor = movers[i], movers[i - 1]
        while not tree.leaves[anchor] and (greatest := max(tree.children[anchor])) < mover:
            anchor = greatest
        tree.move(mover, anchor)
    tree.replace(m, movers[0])
    tree.children[m] = None
    return k


def inverse(mt: MarkedTree) -> CycleDecomposition:
    """Recover the unique derangement with ``forward(p) == mt``.

    ``_peel`` takes the tree down to its last edge, marked at its root a,
    the one vertex of that tree with a leaf child b.  The result is built
    from its successor map without a check: the map starts as the 2-cycle
    (a b), and each splice adds only labels it does not hold yet, top and
    for a 2-cycle the mark deleted at the same level.  So it ends as a
    derangement of 0..n-1.
    """
    t = mt.tree
    if not t.is_standard:
        raise DomainError("inverse needs ground set 0..n-1")
    tree = _Draft.of(t)
    # top down: (top, anchor or partner, whether the splice is a 2-cycle)
    splices: list[tuple[int, int, bool]] = []
    a = _peel(tree, mt.mark, range(t.size - 1, 0, -1), splices)
    (b,) = tree.children[a]
    succ = {a: b, b: a}
    # bottom up
    for top, x, paired in reversed(splices):
        if paired:
            succ[x], succ[top] = top, x
        else:
            succ[x], succ[top] = top, succ[x]
    return CycleDecomposition._from_succ(succ)


def _peel(tree: _Draft, mark: int, tops: Iterable[int],
          splices: list[tuple[int, int, bool]]) -> int:
    """Peel each of ``tops``, top down, off ``tree`` marked at ``mark``,
    appending its level of ``_levels`` to ``splices``, and return the new
    mark.  A label no longer in the tree is skipped, and the peel stops
    when one edge is left.  Each of ``tops`` must be the largest label
    present when its turn comes.

    The C1 cases delete top and splice it back into the cycles right after
    its parent (C1cII: after the mark, re-marking the mark's parent).  C2b
    deletes top and the mark, re-marks the mark's parent and adds the
    2-cycle (mark, top); C2a first undoes the regrouping.

    Each new mark has a leaf child: C1a, C1b and C1cI keep the mark and a
    leaf child of it other than top; C1cII and C2b re-mark the parent of a
    leaf; C2a re-marks a vertex found by its leaf child, which the undo
    leaves in place.  So every level is a valid marked tree, down to size 2.
    """
    parent, children, leaves = tree.parent, tree.children, tree.leaves
    for top in tops:
        if children[top] is None:
            continue
        v = parent[top]
        siblings = children[v]
        if parent[v] < 0 and len(siblings) == 1:  # one edge left
            break
        tag = _classify(tree, mark, top)
        siblings.remove(top)
        children[top] = None
        leaves[v] -= 1
        if tag is C2B:  # the mark v goes too, and its parent keeps a leaf child
            splices.append((top, v, True))
            mark = parent[v]
            children[mark].remove(v)
            children[v] = None
            continue
        if not siblings:  # v is a leaf now, and not the root
            leaves[parent[v]] += 1
        if tag is C1C_II:
            splices.append((top, mark, False))
            mark = parent[mark]
        elif tag is C2A:
            splices.append((top, mark, True))
            mark = _undo_restructure(tree, mark)
        else:
            splices.append((top, v, False))
    return mark
