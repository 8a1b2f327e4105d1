"""Increasing trees and their walk correspondence with permutation words.

An increasing tree is a rooted nonplanar tree whose distinct integer labels
increase along every downward path, so the root always carries the smallest
label.  Trees normally live on the ground set {0, ..., n-1}; arbitrary
ground sets back the ``labels=...;edges=...`` text form.

Walking a tree depth first, always descending to the greatest unvisited
child, and dropping the leading root visit yields a permutation word over
{1, ..., n-1}.  ``IncreasingTree.from_word`` inverts the walk, which gives
the bijection between trees of size n and words of length n-1.
"""

from __future__ import annotations

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

    >>> t = IncreasingTree({1: 0, 2: 0, 3: 1, 4: 0, 5: 4, 6: 2, 7: 4})
    >>> t.depth_search_walk()
    (0, 4, 7, 5, 2, 6, 1, 3)
    >>> t.to_word()
    (4, 7, 5, 2, 6, 1, 3)
    >>> sorted(t.leaves())
    [3, 5, 6, 7]
    """

    __slots__ = ("_labels", "_parent", "_children", "_ranks")

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
        self._derive(tuple(label_list), parent)

    @classmethod
    def _standard(cls, word: Sequence[int]) -> "IncreasingTree":
        """The tree on {0, ..., n-1} with parent word ``word``, the parents
        of 1, ..., n-1 in order, so n = len(word) + 1, built without the
        constructor's checks.

        Only for a ``word`` that is valid by construction, ``word[v-1] < v``
        for every v: that fact implies every check of the constructor, and
        the caller states why it holds.  ``_derive`` fills in the rest as
        for the constructor, so the state is a function of the word.
        """
        tree = cls.__new__(cls)
        tree._derive(tuple(range(len(word) + 1)), dict(enumerate(word, 1)))
        return tree

    def _derive(self, labels: tuple[int, ...], parent: dict[int, int]) -> None:
        """Keep ``labels`` and ``parent`` and derive the children from them,
        for both constructors; v runs up, so every child tuple is ascending."""
        children: dict[int, list[int]] = {v: [] for v in labels}
        for v in labels[1:]:
            children[parent[v]].append(v)
        self._labels, self._parent = labels, parent
        self._children = {v: tuple(c) for v, c in children.items()}
        self._ranks: dict[int, int] | None = None

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
        """The parent word: the parents of the non-root labels, in ascending label order."""
        # a list: CPython builds ``tuple(map(...))`` at a guessed length and
        # resizes it, so freed short words would pile up on a tuple free list
        return [*map(self._parent.__getitem__, self._labels[1:])]

    def __contains__(self, v: int) -> bool:
        return v in self._children

    def _require(self, v: int) -> None:
        if v not in self._children:
            raise DomainError(f"unknown vertex label: {v}")

    def parent_of(self, v: int) -> int | None:
        """Parent label of ``v``, or None for the root."""
        self._require(v)
        return self._parent.get(v)

    def children(self, v: int) -> tuple[int, ...]:
        """Children of ``v`` in ascending label order."""
        self._require(v)
        return self._children[v]

    def leaves(self) -> frozenset[int]:
        """All vertices without children."""
        return frozenset(v for v in self._labels if not self._children[v])

    def rank(self, v: int) -> int:
        """Edge count of a shortest downward path from ``v`` to a leaf.

        Leaves have rank 0; ``rank(v) == 1`` exactly when ``v`` has a leaf
        child.  The full table is computed once per tree and cached.
        """
        self._require(v)
        if self._ranks is None:
            ranks: dict[int, int] = {}
            # children carry larger labels, so descending order fills them first
            for x in reversed(self._labels):
                ch = self._children[x]
                ranks[x] = 1 + min(ranks[c] for c in ch) if ch else 0
            self._ranks = ranks
        return self._ranks[v]

    def has_leaf_child(self, v: int) -> bool:
        """True when some child of ``v`` is a leaf, which is exactly when
        ``rank(v) == 1``.  Costs one lookup per child and builds no table."""
        self._require(v)
        children = self._children
        # a leaf's child tuple is empty, so it is the one falsy entry
        return not all(map(children.__getitem__, children[v]))

    def depth_search_walk(self, start: int | None = None) -> tuple[int, ...]:
        """Vertices of the subtree under ``start`` (default: the root), in
        walk order: descend to the greatest unvisited child, recurse, then
        backtrack."""
        if start is None:
            start = self.root
        self._require(start)
        out: list[int] = []
        stack = [start]
        while stack:
            v = stack.pop()
            out.append(v)
            stack.extend(self._children[v])
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
        the walk, with the implicit root 0 up front.

        >>> IncreasingTree.from_word((4, 7, 5, 2, 6, 1, 3)).serialize()
        'size=8;parents=0,0,1,0,4,2,4'
        """
        word = tuple(word)
        n = len(word) + 1
        if sorted(word) != list(range(1, n)):
            raise FormatError(f"word must be a permutation of 1..{n - 1}")
        parent: dict[int, int] = {}
        stack = [0]
        for x in word:
            while stack[-1] > x:
                stack.pop()
            parent[x] = stack[-1]
            stack.append(x)
        return cls(parent, labels=range(n))

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
        return self._labels == other._labels and self._parent == other._parent

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
