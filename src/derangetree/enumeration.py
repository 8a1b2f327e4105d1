"""Exhaustive generators, exact rank counts and verification.

The generators enumerate: trees by choosing each vertex's parent among
the smaller labels, derangements by dropping the permutations with a
fixed point from the lexicographic stream of permutations, marked trees
by marking each vertex with a leaf child (the rank-1 vertices).
``verify_bijection`` checks the bijection for one size, in this process,
and refuses sizes past a hard ceiling instead of degrading.  Below
``_WALK_MIN_SIZE`` it is a brute force over the public ``forward_with_case``
and ``inverse``: one pass over the derangements plus a coverage scan of
the marked trees.  From there up it walks the derangement recurrence,
growing each derangement's image from a smaller one's by one level of
the shipped ``_grow`` and undoing it by ``_peel``.
``case_counts`` classifies every derangement of one size.  The rank tables
(``count_rank_k``, ``rank_count_table``, ``recurrence_check``) enumerate
nothing: they count exactly, in integers, from a recurrence on the rank
of a tree's root, so they reach sizes in the hundreds.
"""

from __future__ import annotations

import itertools
import operator
import time
from collections import Counter
from dataclasses import dataclass
from math import comb, factorial
from typing import Callable, Iterable, Iterator

from .bijection import (
    CaseTag,
    _case,
    _Draft,
    _grow,
    _peel,
    classify_derangement,
    forward_with_case,
    inverse,
)
from .cycles import CycleDecomposition
from .errors import DomainError, InternalInvariantError, VerificationLimitError
from .trees import IncreasingTree, MarkedTree

DEFAULT_SIZE_LIMIT = 8
HARD_SIZE_LIMIT = 9

_Level = tuple[int, int, bool]  # a level of ``bijection._levels``: (top, x, paired)


def gen_increasing_trees(n: int) -> Iterator[IncreasingTree]:
    """All (n-1)! increasing trees on {0, ..., n-1}, in a fixed order.

    Vertex v's parent ranges over 0..v-1; the stream is the lexicographic
    product of those choices and is restartable.  So every parent word
    gives each of 1..n-1 a smaller parent, and each tree is built from it
    without the constructor's checks.
    """
    yield from map(IncreasingTree._standard, _parent_words(n))


def _parent_words(n: int) -> Iterator[tuple[int, ...]]:
    """The parent words (parent of 1, ..., parent of n-1) of the trees of
    ``gen_increasing_trees(n)``, in the same order."""
    if n < 1:
        raise DomainError("n must be at least 1")
    return itertools.product(*(range(v) for v in range(1, n)))


def _marked_words(n: int) -> Iterator[tuple[tuple[int, ...], list[int]]]:
    """Each parent word of ``_parent_words(n)`` with the rank-1 vertices of
    its tree in ascending order.

    A vertex has rank 1 when it has a leaf child, and the leaves are the
    labels of 1..n-1 that are no one's parent, so the rank-1 vertices are
    the parents of those labels.  For n = 1 there are none, so the list is
    empty.
    """
    for word in _parent_words(n):
        internal = set(word)
        yield word, sorted({word[x - 1] for x in range(1, n) if x not in internal})


def gen_derangements(n: int) -> Iterator[CycleDecomposition]:
    """All derangements of {0, ..., n-1} in canonical cycle form.

    The one-line words come in lexicographic order: the permutations of
    0..n-1 in that order, without the ones that have a fixed point.
    p(0) = 0 is a fixed point, so for each first value x in 1..n-1,
    ``itertools.permutations`` of the other values in ascending order gives
    the rest of the word in lexicographic order, and the filter keeps that
    order.  Each word holds each of 0..n-1 once, so the permutation is
    built from it without ``from_word``'s check.  Empty for n = 1.
    """
    if n < 1:
        raise DomainError("n must be at least 1")
    for x in range(1, n):
        others = [v for v in range(n) if v != x]
        for rest in itertools.permutations(others):
            if all(map(operator.ne, rest, range(1, n))):
                succ = dict(enumerate(rest, 1))
                succ[0] = x
                yield CycleDecomposition._from_succ(succ)


def gen_marked_trees(n: int) -> Iterator[MarkedTree]:
    """Every (tree, rank-1 vertex) pair for size n, each exactly once.

    The trees come in the order of ``gen_increasing_trees``, each with its
    rank-1 vertices from ``_marked_words`` in ascending order.  Each is
    marked through ``MarkedTree._trusted``: ``_marked_words`` lists exactly
    the parents of the leaves, which are the ints with a leaf child.
    """
    for word, marks in _marked_words(n):
        tree = IncreasingTree._standard(word)
        for v in marks:
            yield MarkedTree._trusted(tree, v)


def count_rank_k(n: int, k: int) -> int:
    """Total number of rank-k vertices over all increasing trees of size n.

    Nothing is enumerated: the count is exact integer arithmetic in
    O(n^2 k) steps, from two facts derived here.

    Root rank.  Let G_r(m) count the trees of size m whose root has rank
    at least r.  Every tree counts for r = 0, so G_0(m) = (m-1)!, and a
    single vertex is a leaf, so G_r(1) = 0 for r >= 1.  For m >= 2 the
    root has children and its rank is one more than the least rank among
    them, so it is at least r exactly when every child has rank at least
    r-1.  Deleting the root leaves the set of its children's subtrees:
    their label sets partition 1..m-1, and each carries an increasing
    tree, which the order-preserving relabelling makes a tree of the
    block's size.  So G_r(m) = E_r(m-1), where E_r(s) counts the sets of
    trees with roots of rank at least r-1 on s labelled points: s! times
    the coefficient of x^s in exp(sum_j G_{r-1}(j) x^j / j!).  Sorting by
    the block that holds the least point, of size j, gives E_r(0) = 1 and
    E_r(s) = sum_{j=1..s} C(s-1, j-1) G_{r-1}(j) E_r(s-j).  Then
    H_k(m) = G_k(m) - G_{k+1}(m) counts the trees of size m whose root
    has rank exactly k.

    Subtree sizes.  A vertex's rank depends only on its fringe subtree,
    the vertex and everything below it.  Fix a tree S of size m < n.  The
    pairs (T, v) of a tree T of size n and a non-root vertex v of T whose
    fringe subtree, relabelled, is S number n!/(m+1)!, whatever S is.
    Such a pair is chosen as: the subtree's label set B, whose least
    element is v >= 1; an increasing tree on the other n-m labels,
    (n-m-1)! ways; and a parent for v among the labels below v, which all
    lie outside B, v ways.  The sum of v * C(n-1-v, m-1) over v counts
    the (m+1)-subsets of 0..n-1 by their second-least element v, so it is
    C(n, m+1), and the pairs number (n-m-1)! C(n, m+1) = n!/(m+1)!.
    Summed over the (m-1)! trees S that is (n-1)! n/(m(m+1)): a tree of
    size n has on average n/(m(m+1)) fringe subtrees of size m, and each
    is a uniform tree of size m.

    Adding the root to the non-root vertices, the total is
    H_k(n) + sum_{m<n} n!/(m+1)! H_k(m).  A root of rank k has a path of
    k edges below it, so H_k(m) = 0 for m <= k, and the total is 0 for
    k >= n.
    """
    if n < 1:
        raise DomainError("n must be at least 1")
    if k < 0:
        raise DomainError("k must be nonnegative")
    return 0 if k >= n else _rank_totals(n, k)[-1]


def _next_root_rank_row(g: list[int], r: int) -> list[int]:
    """G_r from g = G_{r-1}; both are indexed by the size m, 0 at m = 0."""
    e = [1] + [0] * (len(g) - 2)  # e[s] = E_r(s) for s = 0..max_n-1
    # G_{r-1}(j) = 0 for j < r, so E_r(s) = 0 for 0 < s < r, and the block
    # of the least point has size j = s or r <= j <= s-r.
    for s in range(r, len(e)):
        total, binom = g[s], comb(s - 1, r - 1)
        for j in range(r, s - r + 1):
            total += binom * g[j] * e[s - j]
            binom = binom * (s - j) // j  # C(s-1, j) from C(s-1, j-1)
        e[s] = total
    return [0, 0] + e[1:]


def _rank_totals(max_n: int, k: int) -> list[int]:
    """``count_rank_k(n, k)`` for n = 1..max_n, from one set of G rows."""
    if k >= max_n:
        return [0] * max_n
    g = [0] + [factorial(m - 1) for m in range(1, max_n + 1)]
    for r in range(1, k + 1):
        g = _next_root_rank_row(g, r)
    h = [a - b for a, b in zip(g, _next_root_rank_row(g, k + 1))]  # H_k(m)
    totals = []
    fringe = 0  # sum_{m<n} n!/(m+1)! H_k(m), which gains the factor n+1 per step
    for n in range(1, max_n + 1):
        totals.append(h[n] + fringe)
        fringe = (n + 1) * fringe + h[n]
    return totals


@dataclass(frozen=True)
class RankCountRow:
    """One table row: rank-k vertex total over all size-n trees."""

    n: int
    k: int
    count: int


def rank_count_table(max_n: int, k: int = 1) -> list[RankCountRow]:
    """Rank-k vertex totals for every size 1..max_n (see ``count_rank_k``)."""
    if max_n < 1:
        raise DomainError("max_n must be at least 1")
    if k < 0:
        raise DomainError("k must be nonnegative")
    return [RankCountRow(m, k, count) for m, count in enumerate(_rank_totals(max_n, k), start=1)]


def check_verification_size(n: int, size_limit: int = DEFAULT_SIZE_LIMIT) -> None:
    """Refuse a verification of size ``n`` past ``min(size_limit, HARD_SIZE_LIMIT)``."""
    ceiling = min(size_limit, HARD_SIZE_LIMIT)
    if n > ceiling:
        raise VerificationLimitError(
            f"n={n} exceeds the verification ceiling {ceiling}; refusing to run")


@dataclass
class VerificationReport:
    """Outcome of one exhaustive bijection check.

    ``round_trip_failures`` is empty exactly when the bijection verified
    for this n.  Stable field names (also used by ``to_dict``): n,
    derangement_count, marked_tree_count, round_trip_failures,
    case_histogram, elapsed_seconds, ok.
    """

    n: int
    derangement_count: int
    marked_tree_count: int
    round_trip_failures: list[str]
    case_histogram: dict[CaseTag, int]
    elapsed_seconds: float

    @property
    def ok(self) -> bool:
        return not self.round_trip_failures

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "derangement_count": self.derangement_count,
            "marked_tree_count": self.marked_tree_count,
            "round_trip_failures": list(self.round_trip_failures),
            "case_histogram": {tag.value: count for tag, count in
                               sorted(self.case_histogram.items(), key=lambda kv: kv[0].value)},
            "elapsed_seconds": self.elapsed_seconds,
            "ok": self.ok,
        }

    def to_text(self) -> str:
        status = "ok" if self.ok else "FAIL"
        lines = [
            f"n={self.n} derangements={self.derangement_count}"
            f" marked_trees={self.marked_tree_count}"
            f" failures={len(self.round_trip_failures)}"
            f" elapsed={self.elapsed_seconds:.3f}s {status}"
        ]
        cases = " ".join(f"{tag.value}={self.case_histogram[tag]}"
                         for tag in CaseTag if self.case_histogram.get(tag))
        if cases:
            lines.append(f"n={self.n} cases {cases}")
        lines.extend(f"n={self.n} failure {f}" for f in self.round_trip_failures)
        return "\n".join(lines)


def verify_bijection(n: int, size_limit: int = DEFAULT_SIZE_LIMIT) -> VerificationReport:
    """Exhaustively check the bijection at size n, in this process.

    Below ``_WALK_MIN_SIZE`` the check is a brute force over the public
    functions (``_brute_force``): every derangement p is mapped forward,
    its image keyed and mapped back, and a scan of the marked trees checks
    that each is an image.  The image keys are distinct, one per
    derangement, and they include the key of each of the marked trees of
    size n, which are as many as the derangements.  So the image keys
    are exactly the keys of the marked trees.  A key, on 0..n-1 the parent
    word and the mark, is the whole marked tree, and an image's state is
    derived from its parent word alone, so each image is the marked tree
    its key names, and ``forward`` is a bijection onto the marked trees.
    None of this relies on a constructor: ``forward`` builds its images
    without re-validating them.  ``inverse∘forward = id`` then makes
    ``inverse`` its two-sided inverse: every marked tree is some
    ``forward(p)``, and ``inverse``, being deterministic, sends it to p, so
    ``forward(inverse(mt)) = mt`` needs no second pass.

    From ``_WALK_MIN_SIZE`` up the check is ``_walk``, along the
    derangement recurrence, through the level steps ``_grow`` and
    ``_peel`` that ``forward`` and ``inverse`` run:

    * Each node is ``forward(p)`` of its derangement p.  ``forward`` peels
      p's levels top down and grows them back from the base pair with
      ``_grow``; the walk grows the same levels from (0 1).  A C1 node
      grows p's top level on its parent's draft.  A C2 node grows it on a
      copy of its parent's draft with the labels from j up shifted by one,
      which is ``forward``'s draft of p before that level: ``_grow`` and
      ``_restructure`` only compare labels, so on the shifted labels they
      make the same moves.  By induction on n, the two drafts agree.
    * A node's draft is a function of its marked tree.  The walk takes
      this from ``_Draft``'s invariant, that the child sets and leaf
      counts are those of the parent word, which its constructor,
      ``_grow`` and ``_peel`` keep; deriving them again from the parent
      word and comparing at each node of size n would take about 65% more
      CPU time at n = 9 (best of 5).
    * ``forward`` is injective.  At every node ``_peel``, a function of the
      draft and the mark, gives back the level and the parent's draft and
      mark, shifted back for C2.  So two nodes of one size with one image
      have the same top level and, by induction, the same parent: they are
      the same derangement.
    * Each image is a marked tree of size n: every edit keeps parents
      below children (see ``_Draft``), and the walk reads a leaf child of
      the mark off the child sets.  There are ``count_rank_k(n, 1)``
      marked trees, counted without enumerating them, and as many nodes of
      size n, so by pigeonhole ``forward`` is a bijection, and ``_peel``
      inverts it.

    The walk does not run ``_check_derangement``, the ``_levels`` scan or
    ``inverse``'s assembly of the successor map.  The brute force checks
    them end to end at 2..7, and ``tests/test_large.py`` by round trips
    at large n.

    Any exception raised along the way is recorded as a failure rather
    than aborting the run.  Sizes above ``min(size_limit,
    HARD_SIZE_LIMIT)`` are refused outright.
    """
    if n < 2:
        raise DomainError("n must be at least 2")
    check_verification_size(n, size_limit)
    start = time.perf_counter()
    histogram: Counter[CaseTag] = Counter()
    if n < _WALK_MIN_SIZE:
        derangement_count, marked_count, failures = _brute_force(n, histogram)
    else:
        def tally(levels: list[_Level], tree: _Draft, mark: int) -> None:
            histogram[_case(tree, mark, n)] += 1

        derangement_count, failures = _walk(n, tally)
        marked_count = count_rank_k(n, 1)
    if derangement_count != marked_count:
        failures.append(
            f"count mismatch: {derangement_count} derangements vs {marked_count} marked trees")
    return VerificationReport(
        n=n,
        derangement_count=derangement_count,
        marked_tree_count=marked_count,
        round_trip_failures=failures,
        case_histogram=dict(histogram),
        elapsed_seconds=time.perf_counter() - start,
    )


# The walk checks the sizes from 8 up: at 8 it takes 0.07 s of CPU, the
# brute force 0.27 s.  The brute force takes 0.04 s for all of 2..7 and is
# the one check of the public functions end to end, so it keeps the sizes
# below (CPU time, best of 5, 2-core machine, Python 3.11.7).
_WALK_MIN_SIZE = 8


def _brute_force(n: int, histogram: Counter[CaseTag]) -> tuple[int, int, list[str]]:
    """Map forward, key and map back every derangement of size n, tallying
    the cases into ``histogram``, then scan the marked trees; return the
    two counts and the failures, in derangement order, then scan order.

    An image's key is, on 0..n-1, its parent word (the parents of 1, ...,
    n-1) followed by its mark, else its text, which only a faulty
    ``forward`` can give.  The tuple holds what the text spells out and
    its length gives n, so two marked trees share a key only when they
    are equal; no text equals a tuple.  The word is the one ``serialize``
    spells out, so a broken parent map raises the same error.

    ``image`` keeps each key's derangement number, not the derangement;
    the first repeated image re-enumerates the derangements once, to name
    the earlier one.  The repeated image itself is named by its own text:
    it has the repeated key, and a key names one marked tree.  The scan
    walks parent words and builds a tree only to name one that no
    derangement reaches; text is made only for a failure.
    """
    failures: list[str] = []
    image: dict[tuple[int, ...] | str, int] = {}
    derangements: list[CycleDecomposition] | None = None  # built on the first repeat
    count = 0
    for count, p in enumerate(gen_derangements(n), 1):
        key = text = None
        try:
            mt, tag = forward_with_case(p)
            histogram[tag] += 1
            tree = mt.tree
            key = (*tree._word(), mt.mark) if tree.is_standard else mt.serialize()
            back = inverse(mt)
            if back != p:
                text = f"inverse(forward({p.serialize()})) = {back.serialize()}"
        except Exception as exc:  # record, never abort mid-verification
            text = f"{p.serialize()}: {type(exc).__name__}: {exc}"
        if key is not None and image.setdefault(key, count) != count:
            if derangements is None:
                derangements = list(gen_derangements(n))
            failures.append(f"{p.serialize()} and {derangements[image[key] - 1].serialize()}"
                            f" map to the same tree {mt.serialize()}")
        if text:
            failures.append(text)
    marked_count = 0
    for word, marks in _marked_words(n):
        for v in marks:
            marked_count += 1
            if (*word, v) not in image:
                # only serialized, which ``_trusted`` allows; ``_marked_words`` gives valid words
                missed = MarkedTree._trusted(IncreasingTree._standard(word), v)
                failures.append(f"{missed.serialize()} is not the image of any derangement")
    return count, marked_count, failures


def _walk(n: int, visit: Callable[[list[_Level], _Draft, int], None]) -> tuple[int, list[str]]:
    """Walk the derangements of sizes 2..n depth first, each grown from a
    smaller one by one level, and call ``visit(levels, tree, mark)`` at
    each of size n; return their number and the failures.

    ``levels`` holds the levels from (0 1) to the node (``_derangement``
    rebuilds its derangement), and ``tree``, marked at ``mark``, is the
    node's draft, on loan until ``visit`` returns.  A node of size m < n
    has m C1 children, and m + 1 C2 children when m + 2 <= n:

    * C1, top = m spliced into a cycle after x, for x in 0..m-1: the level
      ``(m, x, False)`` is grown on the node's own draft and peeled off
      after the child's subtree;
    * C2, the 2-cycle (j, m + 1) added, for j in 0..m: the level
      ``(m + 1, j, True)`` is grown on a copy of the node's draft with the
      labels from j up shifted by one.

    D(m + 2) = (m + 1)(D(m + 1) + D(m)) counts them, and each derangement
    is one node: its top level and the derangement left without it are
    the level and the parent.  At each child the walk checks that the
    mark has a leaf child, and after the peel that ``_peel`` gave back the
    level and the parent's mark and left the parent's parent, child set
    and leaf count on each of its labels.  A check that fails or an
    exception is recorded against the child's derangement, and the walk
    goes on with the next sibling on a draft rebuilt from the parent's.
    The walk changes a draft only through ``_Draft``, ``_grow`` and
    ``_peel``.
    """
    failures: list[str] = []
    levels: list[_Level] = []
    count = 0

    def node(tree: _Draft, mark: int, m: int) -> _Draft:
        """Walk below the node of size m that ``tree``, marked at ``mark``,
        holds; return the draft that holds it afterwards, a rebuilt one
        after a failure."""
        state = _state(tree, range(m))
        pairs = range(m + 1 if m + 2 <= n else 0)
        for level in [*((m, x, False) for x in range(m)), *((m + 1, j, True) for j in pairs)]:
            levels.append(level)
            try:
                tree = child(tree, mark, m, level, state)
            except Exception as exc:  # record, never abort mid-verification
                failures.append(f"{_derangement(levels).serialize()}: {type(exc).__name__}: {exc}")
                tree = _Draft(n, 0, enumerate(state[0][1:], 1))
            levels.pop()
        return tree

    def child(tree: _Draft, mark: int, m: int, level: _Level, state: tuple) -> _Draft:
        """Grow ``level`` on the node of size m that ``tree`` holds, whose
        ``_state`` on 0..m-1 is ``state``, walk below the child, peel the
        level off and check; return the draft that holds the node."""
        nonlocal count
        top, x, paired = level
        if top + 1 == n:
            count += 1
        draft, old, labels = tree, mark, range(m)
        if paired:  # labels[v] = v + (v >= x) for v in 0..m-1: the shift
            labels = [*range(x), *range(x + 1, m + 1)]
            draft = _Draft(n, labels[0], zip(labels[1:], map(labels.__getitem__, state[0][1:])))
            old, state = labels[mark], _state(draft, labels)
        new = _grow(draft, old, [level])
        children = draft.children
        if all(map(children.__getitem__, children[new])):
            raise InternalInvariantError(f"mark {new} has no leaf child")
        if top + 1 == n:
            visit(levels, draft, new)
        else:
            draft = node(draft, new, top + 1)
        splices: list[_Level] = []
        back = _peel(draft, new, [top], splices)
        if splices != [level] or back != old:
            raise InternalInvariantError(
                f"peeling {top} gave {splices} and mark {back}, not {[level]} and mark {old}")
        if _view(draft, labels) != state:
            raise InternalInvariantError(f"peeling {top} did not restore the tree")
        return tree if paired else draft

    root = _Draft(n, 0, [(1, 0)])
    if n == 2:
        count = 1
        visit(levels, root, 0)
    else:
        node(root, 0, 2)
    return count, failures


def _state(tree: _Draft, labels: Iterable[int]) -> tuple[tuple, tuple, tuple]:
    """The parents, copies of the child sets and the leaf counts of
    ``labels``, at least two, in ``tree``: ``_walk``'s snapshot of a node,
    which its restore check compares with the live ``_view`` after a peel.

    The walk changes the child sets in place below the node, so the
    snapshot must copy them: holding them, it would compare each set with
    itself.  The view is compared once and dropped, so it copies nothing.
    """
    parents, children, leaves = _view(tree, labels)
    return parents, tuple(map(set, children)), leaves


def _view(tree: _Draft, labels: Iterable[int]) -> tuple[tuple, tuple, tuple]:
    """The parents, the live child sets and the leaf counts of ``labels``,
    at least two, in ``tree``."""
    get = operator.itemgetter(*labels)
    return get(tree.parent), get(tree.children), get(tree.leaves)


def _derangement(levels: list[_Level]) -> CycleDecomposition:
    """The derangement that ``_walk`` reaches from (0 1) along ``levels``:
    C1 splices top into a cycle after x, C2 shifts the labels from j up by
    one and adds the 2-cycle (j, top)."""
    succ = {0: 1, 1: 0}
    for top, x, paired in levels:
        if paired:
            succ = {u + (u >= x): v + (v >= x) for u, v in succ.items()}
            succ[x], succ[top] = top, x
        else:
            succ[x], succ[top] = top, succ[x]
    return CycleDecomposition._from_succ(succ)


@dataclass(frozen=True)
class RankRecurrenceRow:
    """Rank-1 count for one size with residuals against two candidate
    recurrences; residuals are None where a smaller term is missing."""

    n: int
    count: int
    residual_derangement: int | None
    residual_variant: int | None


def recurrence_check(max_n: int) -> list[RankRecurrenceRow]:
    """Rank-1 vertex counts a(n) with residuals for two recurrences.

    ``residual_derangement`` is a(n) - (n-1)*(a(n-1) + a(n-2)), the
    derangement recurrence; ``residual_variant`` is
    a(n) - n*a(n-1) - n*a(n-2).  Both columns are reported so the data can
    be judged without trusting either formula.
    """
    if max_n < 3:
        raise DomainError("max_n must be at least 3")
    counts = [0, *_rank_totals(max_n, 1)]  # counts[m] = a(m)
    rows = []
    for m in range(1, max_n + 1):
        if m >= 3:
            rd = counts[m] - (m - 1) * (counts[m - 1] + counts[m - 2])
            rv = counts[m] - m * counts[m - 1] - m * counts[m - 2]
        else:
            rd = rv = None
        rows.append(RankRecurrenceRow(m, counts[m], rd, rv))
    return rows


@dataclass(frozen=True)
class CaseCountReport:
    """Histogram of construction cases over all derangements of size n.

    ``top_attached_to_mark`` totals the cases where n - 1 hangs directly
    under the marked vertex (C1a, C1cII, C2a, C2b).
    """

    n: int
    histogram: dict[CaseTag, int]
    top_attached_to_mark: int


def case_counts(n: int) -> CaseCountReport:
    """The construction case of every derangement of size n, n >= 4,
    tallied, with ``top_attached_to_mark`` (see ``CaseCountReport``).

    Each derangement goes through ``classify_derangement``, the whole
    ``forward`` construction, so the cost grows as D(n).
    """
    if n < 4:
        raise DomainError("case analysis needs n >= 4")
    histogram: Counter[CaseTag] = Counter()
    for p in gen_derangements(n):
        histogram[classify_derangement(p)] += 1
    attached = sum(histogram[t] for t in
                   (CaseTag.C1A, CaseTag.C1C_II, CaseTag.C2A, CaseTag.C2B))
    return CaseCountReport(n=n, histogram=dict(histogram), top_attached_to_mark=attached)
