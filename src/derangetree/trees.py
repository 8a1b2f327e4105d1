"""Increasing trees and their walk correspondence with permutation words.

An increasing tree is a rooted nonplanar tree whose distinct integer labels
increase along every downward path, so the root always carries the smallest
label.  Trees normally live on the ground set {0, ..., n-1}; arbitrary
ground sets back the ``labels=...;edges=...`` text form.

A tree is stored as its sorted labels and its parent word, the parents
of the non-root labels in label order.  ``size=...;parents=...`` text is
read, checked and written as that word alone; the child index is built
on the first read that needs it.

Walking a tree depth first, always descending to the greatest unvisited
child, and dropping the leading root visit yields a permutation word over
{1, ..., n-1}.  ``IncreasingTree.from_word`` inverts the walk, which gives
the bijection between trees of size n and words of length n-1.
"""

from __future__ import annotations

import bisect
import operator
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import DomainError, FormatError

PermWord = tuple[int, ...]


class IncreasingTree:
    """Immutable rooted tree whose labels increase away from the root.

    ``parent`` maps every non-root label to its parent label; the root is
    the smallest label and has no entry.  Children form an unordered set;
    they are reported in ascending order everywhere, which is a canonical
    presentation, never tree structure.

    A tree keeps its sorted labels and its parent word, a list.  The child
    index and the rank table are built on the first read that needs them;
    ``in``, ``parent_of``, ``leaves`` and ``has_leaf_child`` read the word.

    >>> t = IncreasingTree({1: 0, 2: 0, 3: 1, 4: 0, 5: 4, 6: 2, 7: 4})
    >>> t.depth_search_walk()
    (0, 4, 7, 5, 2, 6, 1, 3)
    >>> t.to_word()
    (4, 7, 5, 2, 6, 1, 3)
    >>> sorted(t.leaves())
    [3, 5, 6, 7]
    """

    __slots__ = ("_labels", "_parent_word", "_children", "_ranks")

    def __init__(self, parent: Mapping[int, int], labels: Iterable[int] | None = None):
        index = operator.index
        parent = dict(zip(map(index, parent), map(index, parent.values())))
        if labels is None:
            if not parent:
                raise DomainError("a tree with no edges needs an explicit ground set")
            label_list = sorted(set(parent) | set(parent.values()))
        else:
            label_list = sorted(map(index, labels))
            for i in range(1, len(label_list)):
                if label_list[i] == label_list[i - 1]:
                    raise DomainError(f"repeated label: {label_list[i]}")
        if not label_list:
            raise DomainError("ground set is empty")
        if label_list[0] < 0:
            raise DomainError(f"negative label: {label_list[0]}")
        vertices = set(label_list)
        non_roots = vertices - {label_list[0]}
        missing = non_roots - parent.keys()
        if missing:
            raise DomainError(f"vertex {min(missing)} has no parent entry")
        extra = parent.keys() - non_roots
        if extra:
            raise DomainError(f"unexpected parent entry for {min(extra)}")
        for v in label_list[1:]:
            p = parent[v]
            if p not in vertices:
                raise DomainError(f"parent {p} of vertex {v} is not a vertex")
            if p >= v:
                raise DomainError(f"parent {p} of vertex {v} must be smaller")
        self._store(tuple(label_list), [*map(parent.__getitem__, label_list[1:])])

    @classmethod
    def _standard(cls, word: Sequence[int]) -> "IncreasingTree":
        """The tree on {0, ..., n-1} with parent word ``word``, the parents
        of 1, ..., n-1 in order, so n = len(word) + 1, built without the
        constructor's checks.

        Only for a ``word`` that is valid by construction, ``word[v-1] < v``
        for every v: that fact implies every check of the constructor, and
        the caller states why it holds.  The tree keeps a list copy of the
        word and derives nothing.
        """
        tree = cls.__new__(cls)
        tree._store(tuple(range(len(word) + 1)), list(word))
        return tree

    def _store(self, labels: tuple[int, ...], word: list[int]) -> None:
        """Keep ``labels`` and the parent word ``word``, for both constructors."""
        self._labels, self._parent_word = labels, word
        self._children = self._ranks = None  # the child index and rank table, built on use

    def _index(self) -> dict[int, list[int]]:
        """The ascending child lists, built on first use."""
        if self._children is None:
            children = self._children = {v: [] for v in self._labels}
            for v, p in zip(self._labels[1:], self._parent_word):
                children[p].append(v)
        return self._children

    @property
    def size(self) -> int:
        return len(self._labels)

    @property
    def labels(self) -> tuple[int, ...]:
        return self._labels

    @property
    def root(self) -> int:
        return self._labels[0]

    @property
    def is_standard(self) -> bool:
        """True when the ground set is exactly {0, ..., n-1}.

        Labels are stored sorted, distinct and nonnegative: the constructor
        checks this and ``_standard`` takes them from ``range``.  n such
        integers end at n-1 or above, and at exactly n-1 only when they are
        0..n-1, so the last label decides it.
        """
        return self._labels[-1] == len(self._labels) - 1

    def _word(self) -> list[int]:
        """The parent word: the parents of the non-root labels, in ascending
        label order.  Callers only read it: it is the tree's own list."""
        # a list: a tuple word raised the peak memory of ``verify``
        return self._parent_word

    def __contains__(self, v: int) -> bool:
        return v in (range(len(self._labels)) if self.is_standard else self._index())

    def _require(self, v: int) -> None:
        if v not in self:
            raise DomainError(f"unknown vertex label: {v}")

    def parent_of(self, v: int) -> int | None:
        """Parent label of ``v``, or None for the root."""
        self._require(v)
        i = bisect.bisect_left(self._labels, v)  # v's place among the sorted labels
        return self._parent_word[i - 1] if i else None

    def children(self, v: int) -> tuple[int, ...]:
        """Children of ``v`` in ascending label order."""
        self._require(v)
        return tuple(self._index()[v])

    def leaves(self) -> frozenset[int]:
        """All vertices without children: the labels that are nobody's parent."""
        return frozenset(self._labels).difference(self._parent_word)

    def rank(self, v: int) -> int:
        """Edge count of a shortest downward path from ``v`` to a leaf.

        Leaves have rank 0; ``rank(v) == 1`` exactly when ``v`` has a leaf
        child.  The full table is computed once per tree and cached.
        """
        self._require(v)
        if self._ranks is None:
            ranks: dict[int, int] = {}
            children = self._index()
            # children carry larger labels, so descending order fills them first
            for x in reversed(self._labels):
                ch = children[x]
                ranks[x] = 1 + min(ranks[c] for c in ch) if ch else 0
            self._ranks = ranks
        return self._ranks[v]

    def has_leaf_child(self, v: int) -> bool:
        """True when some child of ``v`` is a leaf, which is exactly when
        ``rank(v) == 1``.  Read off the word in O(n): the children of ``v``
        are the labels whose entry is ``v``, and the leaves are the labels
        absent from the word.  Both scans run inside ``set`` and
        ``list.index``, with no child index."""
        self._require(v)
        word, labels = self._parent_word, self._labels
        internal = set(word)
        i = 0
        try:
            while True:
                i = word.index(v, i) + 1  # word[i - 1] is the parent of labels[i]
                if labels[i] not in internal:
                    return True
        except ValueError:  # no further child of v
            return False

    def depth_search_walk(self, start: int | None = None) -> tuple[int, ...]:
        """Vertices of the subtree under ``start`` (default: the root), in
        walk order: descend to the greatest unvisited child, recurse, then
        backtrack."""
        if start is None:
            start = self.root
        self._require(start)
        children = self._index()
        out: list[int] = []
        stack = [start]
        while stack:
            v = stack.pop()
            out.append(v)
            stack.extend(children[v])
        return tuple(out)

    def to_word(self) -> PermWord:
        """The walk with the root visit dropped: a permutation of 1..n-1.

        >>> IncreasingTree({1: 0, 2: 0}).to_word()
        (2, 1)
        """
        if not self.is_standard:
            raise DomainError("permutation words need ground set 0..n-1")
        return self.depth_search_walk()[1:]

    @classmethod
    def from_word(cls, word: Iterable[int]) -> "IncreasingTree":
        """The unique tree whose walk produces ``word``.

        Each letter's parent is the nearest smaller letter to its left in
        the walk, with the implicit root 0 up front: the stack top once the
        greater letters are popped, so 0 or a smaller earlier letter.  As
        ``word`` is a permutation of 1..n-1, each v in 1..n-1 gets one
        parent below it, which implies the constructor's checks.

        >>> IncreasingTree.from_word((4, 7, 5, 2, 6, 1, 3)).serialize()
        'size=8;parents=0,0,1,0,4,2,4'
        """
        word = tuple(word)
        n = len(word) + 1
        if sorted(word) != list(range(1, n)):
            raise FormatError(f"word must be a permutation of 1..{n - 1}")
        parents = [0] * (n - 1)
        stack = [0]
        for x in word:
            while stack[-1] > x:
                stack.pop()
            parents[x - 1] = stack[-1]
            stack.append(x)
        return cls._standard(parents)

    # -- text form --

    def serialize(self) -> str:
        """Canonical text: ``size=n;parents=p1,...`` on 0..n-1, otherwise
        ``labels=...;edges=child:parent,...`` with children ascending."""
        if self.is_standard:
            return f"size={self.size};parents={','.join(map(str, self._word()))}"
        labels = ",".join(str(x) for x in self._labels)
        edges = ",".join(f"{v}:{p}" for v, p in zip(self._labels[1:], self._word()))
        return f"labels={labels};edges={edges}"

    @classmethod
    def parse(cls, text: str) -> "IncreasingTree":
        tree, mark = _parse_tree_parts(text)
        if mark is not None:
            raise FormatError("unexpected mark field in plain tree text")
        return tree

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IncreasingTree):
            return NotImplemented
        return self._labels == other._labels and self._parent_word == other._parent_word

    def __hash__(self) -> int:
        return hash((self._labels, *self._word()))

    def __repr__(self) -> str:
        return f"IncreasingTree.parse({self.serialize()!r})"


@dataclass(frozen=True)
class MarkedTree:
    """An increasing tree with one distinguished vertex of rank exactly 1."""

    tree: IncreasingTree
    mark: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "mark", operator.index(self.mark))
        if not self.tree.has_leaf_child(self.mark):  # DomainError for an unknown mark
            r = self.tree.rank(self.mark)  # only to word the error
            raise DomainError(f"marked vertex {self.mark} has rank {r}, need rank 1")

    @classmethod
    def _trusted(cls, tree: IncreasingTree, mark: int) -> "MarkedTree":
        """``tree`` marked at ``mark`` without ``__post_init__``'s checks.

        Only for an int ``mark`` that has a leaf child in ``tree``; the
        caller states why it holds.
        """
        marked = object.__new__(cls)
        fields = marked.__dict__  # past the frozen dataclass's __setattr__
        fields["tree"], fields["mark"] = tree, mark
        return marked

    @property
    def size(self) -> int:
        return self.tree.size

    def serialize(self) -> str:
        return f"{self.tree.serialize()};mark={self.mark}"

    @classmethod
    def parse(cls, text: str) -> "MarkedTree":
        tree, mark = _parse_tree_parts(text)
        if mark is None:
            raise FormatError("missing mark field")
        return cls(tree, mark)

    def __repr__(self) -> str:
        return f"MarkedTree.parse({self.serialize()!r})"


def parse_tree_text(text: str) -> IncreasingTree | MarkedTree:
    """Parse either a plain tree or a marked tree, whichever the text holds."""
    tree, mark = _parse_tree_parts(text)
    return tree if mark is None else MarkedTree(tree, mark)


def _int_field(value: str, what: str) -> int:
    if not (value.isascii() and value.isdigit()):
        raise FormatError(f"{what} must be a nonnegative integer, got {value!r}")
    return int(value)


def _parse_tree_parts(text: str) -> tuple[IncreasingTree, int | None]:
    """The tree and the mark, if any, that ``text`` holds.

    A ``parents=`` body is read as a word in one pass: every entry is
    nonempty ASCII digits and ``word[v-1] < v`` for every v.  That implies
    every check of the constructor, so the tree is built by ``_standard``:
    the labels 0..n-1 are distinct, sorted and nonnegative, and each of
    1..n-1 gets exactly one parent, a label in 0..v-1.  Any other body
    goes entry by entry through ``_int_field`` and the constructor, which
    name its first fault in the same words.
    """
    fields: dict[str, str] = {}
    keys: list[str] = []
    for part in text.strip().split(";"):
        key, eq, value = part.partition("=")
        if not eq:
            raise FormatError(f"malformed field {part!r}")
        if key in fields:
            raise FormatError(f"duplicate field {key!r}")
        fields[key] = value
        keys.append(key)
    mark: int | None = None
    if "mark" in fields:
        if keys[-1] != "mark":
            raise FormatError("mark must be the final field")
        mark = _int_field(fields["mark"], "mark")
        keys.remove("mark")
    if keys == ["size", "parents"]:
        n = _int_field(fields["size"], "size")
        if n < 1:
            raise FormatError("size must be at least 1")
        body = fields["parents"]
        entries = body.split(",") if body else []
        if len(entries) != n - 1:
            raise FormatError(f"expected {n - 1} parent entries, got {len(entries)}")
        if body.isascii() and body.replace(",", "").isdigit() and all(entries):
            word = [*map(int, entries)]
            if all(map(operator.lt, word, range(1, n))):
                return IncreasingTree._standard(word), mark
        # a malformed entry or a bad parent: the first one is named below
        parent = {v: _int_field(e, f"parent of {v}") for v, e in enumerate(entries, start=1)}
        return IncreasingTree(parent, labels=range(n)), mark
    if keys == ["labels", "edges"]:
        body = fields["labels"]
        if not body:
            raise FormatError("labels field is empty")
        labels = [_int_field(x, "label") for x in body.split(",")]
        parent = {}
        if fields["edges"]:
            for item in fields["edges"].split(","):
                c, colon, p = item.partition(":")
                if not colon:
                    raise FormatError(f"malformed edge {item!r}")
                child = _int_field(c, "edge child")
                if child in parent:
                    raise FormatError(f"duplicate edge for vertex {child}")
                parent[child] = _int_field(p, "edge parent")
        return IncreasingTree(parent, labels), mark
    raise FormatError("expected size=...;parents=... or labels=...;edges=...")


def format_word(word: Iterable[int]) -> str:
    """Space-separated text for a permutation word; empty word gives ''."""
    return " ".join(str(x) for x in word)


def parse_word(text: str) -> PermWord:
    """Parse a permutation word.

    Accepts space-separated integers, or a compact run of digits when every
    letter is a single digit ("4752613" means 4 7 5 2 6 1 3).
    """
    text = text.strip()
    if not text:
        return ()
    tokens = text.split() if any(c.isspace() for c in text) else list(text)
    out = []
    for tok in tokens:
        if not (tok.isascii() and tok.isdigit()):
            raise FormatError(f"not a nonnegative integer: {tok!r}")
        out.append(int(tok))
    return tuple(out)
