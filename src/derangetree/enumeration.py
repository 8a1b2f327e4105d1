"""Exhaustive generators, exact rank counts and brute-force verification.

The generators enumerate: trees by choosing each vertex's parent among
the smaller labels, derangements by backtracking over fixed-point-free
one-line words, marked trees by marking each vertex with a leaf child
(the rank-1 vertices).  ``verify_bijection`` checks the bijection for one
size in a single pass over the derangements plus a coverage scan of the
marked trees, and refuses sizes past a hard ceiling instead of degrading.
From n = 7 up it splits the pass into blocks by the value p(0) and checks
all but one of them in forked child processes, one per usable CPU; the
report is the same as from one block.
``case_counts`` classifies every derangement of one size.  The rank tables
(``count_rank_k``, ``rank_count_table``, ``recurrence_check``) enumerate
nothing: they count exactly, in integers, from a recurrence on the rank
of a tree's root, so they reach sizes in the hundreds.
"""

from __future__ import annotations

import itertools
import marshal
import os
import threading
import time
from collections import Counter
from dataclasses import dataclass
from math import comb, factorial
from typing import Iterable, Iterator

from .bijection import CaseTag, classify_derangement, forward_with_case, inverse
from .cycles import CycleDecomposition
from .errors import DomainError, VerificationLimitError
from .trees import IncreasingTree, MarkedTree

DEFAULT_SIZE_LIMIT = 8
HARD_SIZE_LIMIT = 9


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

    The one-line words come in lexicographic order, built by backtracking
    position by position over the values still free, never putting i at
    position i; so no word with a fixed point is ever built.  Each value
    goes into one position at most, so every word is a permutation of
    0..n-1, and the permutation is built from it without ``from_word``'s
    check.  Empty for n = 1.
    """
    if n < 1:
        raise DomainError("n must be at least 1")
    return _derangements(n, range(n))


def _derangements(n: int, firsts: Iterable[int]) -> Iterator[CycleDecomposition]:
    """The derangements of ``gen_derangements(n)`` whose one-line word
    starts with a value in ``firsts``, in the order of ``firsts`` and
    lexicographic after that.

    So the stream for a value x is one contiguous run of the full stream,
    and the runs for consecutive ranges of values follow one another.  For
    n >= 2 every run for one value x in 1..n-1 holds D(n)/(n-1)
    derangements: conjugating by the transposition (x y) fixes 0, keeps
    a permutation fixed-point free and maps p(0) = x to p(0) = y, so it
    is a bijection between the runs of x and y.
    """
    word: list[int] = []
    free = [True] * n
    options = [iter(firsts)]  # the values still to try at each open position
    while options:
        i = len(word)
        for x in options[-1]:
            if free[x] and x != i:
                break
        else:  # position i is exhausted: backtrack
            options.pop()
            if word:
                free[word.pop()] = True
            continue
        if i == n - 1:
            succ = dict(enumerate(word))
            succ[i] = x
            yield CycleDecomposition._from_succ(succ)
            continue
        word.append(x)
        free[x] = False
        options.append(iter(range(n)))


def gen_marked_trees(n: int) -> Iterator[MarkedTree]:
    """Every (tree, rank-1 vertex) pair for size n, each exactly once.

    The trees come in the order of ``gen_increasing_trees``, each with its
    rank-1 vertices from ``_marked_words`` in ascending order; ``MarkedTree``
    checks each once.
    """
    for word, marks in _marked_words(n):
        tree = IncreasingTree._standard(word)
        for v in marks:
            yield MarkedTree(tree, v)


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


def _key(mt: MarkedTree) -> tuple[int, ...] | str:
    """What ``verify_bijection`` compares images by: on 0..n-1 the parent
    word (parent of 1, ..., parent of n-1) followed by the mark, else the
    text, which only a faulty ``forward`` can give.

    The tuple holds what the text spells out and its length gives n, so
    two marked trees share a key only when they are equal; no text equals
    a tuple.  The word is the one ``serialize`` spells out, so a broken
    parent map raises the same error.
    """
    tree = mt.tree
    if not tree.is_standard:
        return mt.serialize()
    return (*tree._word(), mt.mark)


def _text(key: tuple[int, ...] | str) -> str:
    """The text of the marked tree that ``key`` names (see ``_key``)."""
    if isinstance(key, str):
        return key
    return MarkedTree(IncreasingTree._standard(key[:-1]), key[-1]).serialize()


def verify_bijection(n: int, size_limit: int = DEFAULT_SIZE_LIMIT) -> VerificationReport:
    """Exhaustively check the bijection at size n.

    One pass maps every derangement p forward and checks that the images
    are distinct and that ``inverse(forward(p)) == p``; a scan of the
    marked trees then checks that each is an image, and the two counts are
    compared.  That is enough, and it rests on these checks alone, not on
    any constructor: ``forward`` builds its images without re-validating
    them.  Images are compared by their keys (``_key``): on 0..n-1 the
    parent word and the mark, which are the whole marked tree.  The image
    keys are distinct, one per derangement, and the scan finds among them
    the key of each of the marked trees of size n, which are as many as the
    derangements.  So the image keys are exactly the keys of the marked
    trees of size n.  An image's state is derived from its parent word
    alone, so each image is the marked tree its key names, and ``forward``
    is a bijection onto the marked trees.  ``inverse∘forward = id`` then
    makes ``inverse`` its two-sided inverse: every marked tree is some
    ``forward(p)``, and ``inverse``, being deterministic, sends it to p, so
    ``forward(inverse(mt)) = mt`` needs no second pass.

    The pass runs in blocks of derangements split by the value p(0)
    (``_start_blocks``, then ``_finish_verification``): from n = 7 up, on
    a POSIX system with more than one usable CPU and no other thread
    running, each block but the first is checked in a forked child process
    while this process checks the first.  The blocks' image keys, case
    tallies and failure texts are then merged in derangement order, so the
    report is the one a single block gives, and repeated images are found
    across blocks.

    The scan walks parent words and builds no tree, ``image`` keeps each
    derangement's index, not the derangement, and text is made only for a
    failure; the first repeated image re-enumerates the derangements once,
    to name the earlier ones.

    Any exception raised along the way is recorded as a failure rather
    than aborting the run.  Sizes above ``min(size_limit,
    HARD_SIZE_LIMIT)`` are refused outright.
    """
    if n < 2:
        raise DomainError("n must be at least 2")
    check_verification_size(n, size_limit)
    start = time.perf_counter()
    return _finish_verification(n, *_start_blocks(n), start)


def _finish_verification(n: int, first: range, children: list[_Child],
                         start: float) -> VerificationReport:
    """The report of size n from the blocks ``_start_blocks(n)`` started,
    timed from ``start``: this process checks its own block ``first``, then
    merges each child's result in order.  Reaps every child, also when it
    raises."""
    failures: list[str] = []
    histogram: Counter[CaseTag] = Counter()
    image: dict[tuple[int, ...] | str, int] = {}
    derangements: list[CycleDecomposition] | None = None  # built on the first repeat
    derangement_count = 0
    try:
        for keys, tags, texts in _finished_blocks(n, first, children):
            histogram.update({CaseTag(value): count for value, count in tags.items()})
            for i, key in enumerate(keys):
                index = derangement_count + i
                if key is not None and image.setdefault(key, index) != index:
                    if derangements is None:
                        derangements = list(gen_derangements(n))
                    failures.append(f"{derangements[index].serialize()} and"
                                    f" {derangements[image[key]].serialize()}"
                                    f" map to the same tree {_text(key)}")
                if i in texts:
                    failures.append(texts[i])
            derangement_count += len(keys)
    finally:
        _reap(children)
    marked_count = 0
    for word, marks in _marked_words(n):
        for v in marks:
            marked_count += 1
            if (*word, v) not in image:
                failures.append(f"{_text((*word, v))} is not the image of any derangement")
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


_Block = tuple[list, dict[str, int], dict[int, str]]


def _check_block(n: int, firsts: range) -> _Block:
    """Map forward, key and map back the derangements of size n with p(0)
    in ``firsts``.

    Returns, in the order of ``_derangements(n, firsts)``: the image key of
    each derangement (None where ``forward`` or ``_key`` raised), the count
    of each case tag's value, and the failure text of each derangement
    that has one, by its index in the block.  Only builtin types, so that
    ``marshal`` can carry the result out of a child process.
    """
    keys: list[tuple[int, ...] | str | None] = []
    tags: dict[str, int] = {}
    texts: dict[int, str] = {}
    for i, p in enumerate(_derangements(n, firsts)):
        key = None
        try:
            mt, tag = forward_with_case(p)
            tags[tag.value] = tags.get(tag.value, 0) + 1
            key = _key(mt)
            back = inverse(mt)
            if back != p:
                texts[i] = f"inverse(forward({p.serialize()})) = {back.serialize()}"
        except Exception as exc:  # record, never abort mid-verification
            texts[i] = f"{p.serialize()}: {type(exc).__name__}: {exc}"
        keys.append(key)
    return keys, tags, texts


_FORK_MIN_SIZE = 7  # below this, one fork costs about what it saves
_Child = tuple[range, tuple[int, int] | None]  # a block, and _fork_check's result for it


def _start_blocks(n: int) -> tuple[range, list[_Child]]:
    """The start half of checking the blocks of ``_blocks(n, parts)``: fork
    a child for each block but the first, and return the first block, the
    one this process checks, with the children.  ``_finish_verification``
    is the finish half; ``_reap`` cleans up when a caller cannot reach it.

    From n = 7 up there are min(usable CPUs, n - 1) parts when ``os.fork``
    exists and no other thread runs, since forking with threads is
    unsafe; else one.  The first block is the smallest, since this process
    merges too.  If a fork raises, the children forked so far are reaped.
    """
    parts = 1
    if n >= _FORK_MIN_SIZE and hasattr(os, "fork") and threading.active_count() == 1:
        parts = min(_usable_cpus(), n - 1)
    first, *rest = _blocks(n, parts)
    children: list[_Child] = []
    try:
        for firsts in rest:
            children.append((firsts, _fork_check(n, firsts)))
    except BaseException:
        _reap(children)
        raise
    return first, children


def _finished_blocks(n: int, first: range, children: list[_Child]) -> Iterator[_Block]:
    """``_check_block`` of ``first`` here, then each child's result, in
    order, taking each child off ``children`` as it is collected.  A block
    whose child could not be forked or did not exit 0 is checked here
    instead, so the outcome, or the exception, is the one-block one."""
    yield _check_block(n, first)
    while children:
        firsts, child = children.pop(0)
        result = None if child is None else _collect(*child)
        yield _check_block(n, firsts) if result is None else result


def _reap(children: list[_Child]) -> None:
    """Close the pipes of the children left in ``children``, then wait for
    each, and empty the list.  A child blocked on writing to a full pipe
    ends once no process holds its read end; a later child holds copies of
    the earlier children's read ends, so every pipe is closed before the
    first wait."""
    for _, child in children:
        if child is not None:
            os.close(child[1])
    for _, child in children:
        if child is not None:
            os.waitpid(child[0], 0)
    children.clear()


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this system
        return os.cpu_count() or 1


def _blocks(n: int, parts: int) -> list[range]:
    """1..n-1, the values of p(0), split into ``parts`` consecutive
    ranges whose sizes differ by at most one, the smaller ones first."""
    size, extra = divmod(n - 1, parts)
    blocks, lo = [], 1
    for b in range(parts):
        hi = lo + size + (b >= parts - extra)
        blocks.append(range(lo, hi))
        lo = hi
    return blocks


def _fork_check(n: int, firsts: range) -> tuple[int, int] | None:
    """Fork a child that checks one block and writes the marshalled result
    to a pipe, after its length in 8 bytes; return the child's pid and the
    pipe's read end, or None when no process could be forked.

    The child leaves by ``os._exit`` whatever happens, so it never returns
    into the caller's stack and never flushes the stdio buffers it
    inherited.
    """
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # out of processes or memory: the block is checked here
        os.close(read)
        os.close(write)
        return None
    if pid == 0:
        status = 1
        try:
            os.close(read)
            data = marshal.dumps(_check_block(n, firsts))
            with open(write, "wb") as pipe:
                pipe.write(len(data).to_bytes(8, "little"))
                pipe.write(data)
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    return pid, read


def _collect(pid: int, fd: int) -> _Block | None:
    """Read a child's result from the pipe ``fd`` and reap the child; None
    unless it exited 0, which it does only once the whole result is sent.

    The length comes first, so the result is read into one buffer of its
    own size, not into one grown as it arrives.
    """
    try:
        with open(fd, "rb") as pipe:
            size = int.from_bytes(pipe.read(8), "little")
            data = pipe.read(size)
    finally:
        _, status = os.waitpid(pid, 0)
    if status != 0:
        return None
    return marshal.loads(data)


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
    if n < 4:
        raise DomainError("case analysis needs n >= 4")
    histogram: Counter[CaseTag] = Counter()
    for p in gen_derangements(n):
        histogram[classify_derangement(p)] += 1
    attached = sum(histogram[t] for t in
                   (CaseTag.C1A, CaseTag.C1C_II, CaseTag.C2A, CaseTag.C2B))
    return CaseCountReport(n=n, histogram=dict(histogram), top_attached_to_mark=attached)
