"""Independent oracles used by the tests.

Everything here is deliberately written from scratch against the
definitions, not by calling the code under test, so that each check has
two genuinely different routes to the same answer.
"""

import functools
import itertools
from collections import Counter

from derangetree import CaseTag, IncreasingTree, MarkedTree


def brute_rank(tree: IncreasingTree, v: int) -> int:
    """Shortest downward distance to a leaf, by exploring every path."""
    best = None

    def explore(x, depth):
        nonlocal best
        ch = tree.children(x)
        if not ch:
            best = depth if best is None else min(best, depth)
        for c in ch:
            explore(c, depth + 1)

    explore(v, 0)
    return best


def brute_rank_count(n: int, k: int) -> int:
    """Rank-k vertices over all increasing trees of size n, by brute force."""
    return _brute_rank_histogram(n).get(k, 0)


@functools.cache
def _brute_rank_histogram(n: int) -> dict[int, int]:
    """How many vertices of each rank all trees of size n hold together.

    Each tree is built from its own choice of parent for every vertex
    among the smaller labels, and every vertex is ranked by ``brute_rank``.
    """
    hist: dict[int, int] = {}
    for _, tree in _trees_by_parent_choice(n):
        for v in range(n):
            r = brute_rank(tree, v)
            hist[r] = hist.get(r, 0) + 1
    return hist


def _trees_by_parent_choice(n: int):
    """Every tree on 0..n-1 with its parent choices for 1..n-1, each vertex
    choosing among the smaller labels, in ``itertools.product`` order and
    built by the validating constructor."""
    for choices in itertools.product(*(range(v) for v in range(1, n))):
        yield choices, IncreasingTree(dict(enumerate(choices, start=1)), labels=range(n))


def marked_tree_texts(n: int) -> list[str]:
    """Text of every marked tree of size n in stream order: trees by parent
    choice, then the rank-1 vertices of each in ascending order, with the
    text spelled out from the choices."""
    out = []
    for choices, tree in _trees_by_parent_choice(n):
        parents = ",".join(map(str, choices))
        out.extend(f"size={n};parents={parents};mark={v}"
                   for v in range(n) if brute_rank(tree, v) == 1)
    return out


def lift(x: int, j: int) -> int:
    """``x`` moved up by one when it is at least ``j``, leaving ``j`` free."""
    return x if x < j else x + 1


def lift_tree(tree: IncreasingTree, j: int) -> IncreasingTree:
    """``tree`` with every label ``>= j`` raised by one, rebuilt by the
    validating constructor from ``parent_of``."""
    parent = {lift(v, j): lift(tree.parent_of(v), j) for v in tree.labels if v != tree.root}
    return IncreasingTree(parent, labels=[lift(v, j) for v in tree.labels])


def random_marked_tree(rng, n: int) -> MarkedTree:
    """A uniform marked tree of size n >= 2, drawn with ``rng``.

    Each v in 1..n-1 takes a parent uniform in 0..v-1, so each of the
    (n-1)! trees is equally likely, and a vertex is drawn uniformly.  The
    pair is kept when the vertex has a leaf child, read off ``children``.
    So every (tree, rank-1 vertex) pair, that is every marked tree, has
    the same chance; about 1/e of the draws are kept.
    """
    while True:
        tree = IncreasingTree({v: rng.randrange(v) for v in range(1, n)}, labels=range(n))
        v = rng.randrange(n)
        if any(not tree.children(c) for c in tree.children(v)):
            return MarkedTree(tree, v)


def recursive_walk(tree: IncreasingTree, v: int) -> list[int]:
    """Reference greatest-child-first walk, written recursively."""
    out = [v]
    for c in sorted(tree.children(v), reverse=True):
        out.extend(recursive_walk(tree, c))
    return out


def descent_count(word) -> int:
    return sum(1 for a, b in zip(word, word[1:]) if a > b)


def naive_leaves(tree: IncreasingTree) -> set[int]:
    """Leaves as the labels that never appear as a parent."""
    parents = {tree.parent_of(v) for v in tree.labels if v != tree.root}
    return set(tree.labels) - parents


def subfactorial(n: int) -> int:
    """Derangement count by the recurrence d(n) = (n-1)(d(n-1) + d(n-2))."""
    if n == 0:
        return 1
    if n == 1:
        return 0
    a, b = 1, 0  # d(0), d(1)
    for m in range(2, n + 1):
        a, b = b, (m - 1) * (a + b)
    return b


def fixed_point_free_words(n: int) -> list[tuple[int, ...]]:
    """One-line words of the derangements of 0..n-1 in lexicographic order,
    by filtering every permutation for fixed points."""
    return [w for w in itertools.permutations(range(n))
            if all(x != i for i, x in enumerate(w))]


def factorial(n: int) -> int:
    out = 1
    for m in range(2, n + 1):
        out *= m
    return out


def independent_case_conditions(mt: MarkedTree) -> dict[CaseTag, bool]:
    """The six case predicates for a marked tree of size >= 4, each written
    out directly so the partition claim can be checked condition by
    condition."""
    t, m = mt.tree, mt.mark
    top = t.size - 1
    v = t.parent_of(top)
    kids = t.children(m)
    siblings = [c for c in kids if c != top]
    only_child = v == m and kids == (top,)
    return {
        CaseTag.C1B: v != m and v not in kids,
        CaseTag.C1C_I: v in kids,
        CaseTag.C2B: only_child and t.rank(t.parent_of(m)) == 1,
        CaseTag.C1C_II: only_child and t.rank(t.parent_of(m)) == 2,
        CaseTag.C1A: v == m and len(kids) > 1 and any(t.rank(c) == 0 for c in siblings),
        CaseTag.C2A: v == m and len(kids) > 1 and all(t.rank(c) != 0 for c in siblings),
    }


def validated_rebuild(tree: IncreasingTree) -> IncreasingTree:
    """The tree the validating constructor builds from ``tree``'s
    ``parent_of`` reads on 0..n-1."""
    return IncreasingTree({v: tree.parent_of(v) for v in range(1, tree.size)},
                          labels=range(tree.size))


def assert_matches_validated(tree: IncreasingTree) -> None:
    """``tree`` against its validated rebuild: equal, with equal hash and
    text, and with the same children, in the same order, at every vertex."""
    ref = validated_rebuild(tree)
    assert tree == ref and hash(tree) == hash(ref)
    assert tree.labels == ref.labels
    assert all(tree.children(v) == ref.children(v) for v in ref.labels)
    assert tree.serialize() == ref.serialize()


def assert_marked_matches_validated(mt: MarkedTree) -> None:
    """``mt`` against ``MarkedTree`` of its tree's validated rebuild and its
    mark, whose constructor checks that the mark has rank 1: the trees
    match as in ``assert_matches_validated``, and the marked trees are
    equal, with equal hash and text and an ``int`` mark."""
    assert_matches_validated(mt.tree)
    ref = MarkedTree(validated_rebuild(mt.tree), mt.mark)
    assert mt == ref and hash(mt) == hash(ref)
    assert type(mt.mark) is int
    assert mt.serialize() == ref.serialize()


def assert_draft_matches(draft, tree: IncreasingTree) -> None:
    """A ``bijection._Draft`` of ``tree`` on 0..n-1 against the tree's
    public reads: ``parent`` is ``parent_of`` with -1 at the root,
    ``children`` the child sets, and ``leaves`` counts each vertex's
    children among ``naive_leaves``."""
    n = tree.size
    assert len(draft.parent) == len(draft.children) == len(draft.leaves) == n
    leaf_children = Counter(tree.parent_of(v) for v in naive_leaves(tree))
    for v in range(n):
        up = tree.parent_of(v)
        assert draft.parent[v] == (-1 if up is None else up)
        assert draft.children[v] == set(tree.children(v))
        assert draft.leaves[v] == leaf_children[v]


def canonical_cycles(word) -> tuple[tuple[int, ...], ...]:
    """Cycles of i -> word[i], each rotated to start at its least label and
    sorted by it, found by following images from every label."""
    cycles = set()
    for i in range(len(word)):
        cyc = [i]
        while word[cyc[-1]] != i:
            cyc.append(word[cyc[-1]])
        least = cyc.index(min(cyc))
        cycles.add(tuple(cyc[least:] + cyc[:least]))
    return tuple(sorted(cycles))
