"""Permutations of a finite integer set stored as disjoint cycles.

A permutation is stored as its successor map alone, label -> image.
Canonical form: every cycle is rotated so its smallest element comes first,
and cycles are sorted by their smallest element; it comes from one walk
over the successor map, made on first use and cached.  A derangement is a
permutation with no fixed point, i.e. no cycle of length 1.
"""

from __future__ import annotations

import operator
from typing import Iterable, Sequence

from .errors import DomainError, FormatError


class CycleDecomposition:
    """Immutable permutation in disjoint-cycle form.

    Only the successor map is stored.  The canonical cycles and the
    predecessor map are computed on first use and cached; equality compares
    successor maps, which is the same as comparing canonical cycles.

    >>> p = CycleDecomposition([(5, 0, 3), (4, 2, 1)])
    >>> p.serialize()
    '(0 3 5)(1 4 2)'
    >>> p.image(3), p.preimage(3)
    (5, 0)
    >>> p.is_derangement
    True
    """

    __slots__ = ("_succ", "_cycles", "_pred")

    def __init__(self, cycles: Iterable[Sequence[int]]):
        given: list[tuple[int, ...]] = []
        succ: dict[int, int] = {}
        try:
            for cyc in cycles:
                cyc = tuple(map(operator.index, cyc))
                given.append(cyc)
                succ.update(zip(cyc, cyc[1:] + cyc[:1]))
        except Exception:
            _check_labels(given)  # a fault in an earlier cycle is reported first
            raise
        # a repeated label leaves succ short of one entry per label
        if len(succ) != sum(map(len, given)) or not all(given) or (succ and min(succ) < 0):
            _check_labels(given)
        self._succ = succ
        self._cycles: tuple[tuple[int, ...], ...] | None = None
        self._pred: dict[int, int] | None = None

    @classmethod
    def from_word(cls, word: Sequence[int]) -> "CycleDecomposition":
        """Build from one-line notation, ``word[i]`` being the image of i.

        A word of integers that sorts to 0..n-1 holds each label once, with
        no negative label and no empty cycle: it passes every check of the
        constructor, so the constructor is skipped.
        """
        word = tuple(map(operator.index, word))
        if sorted(word) != list(range(len(word))):
            raise DomainError(f"word is not a permutation of 0..{len(word) - 1}")
        return cls._from_succ(dict(enumerate(word)))

    @classmethod
    def _from_succ(cls, succ: dict[int, int]) -> "CycleDecomposition":
        """The permutation with successor map ``succ``, built without any
        check.

        Only for a ``succ`` that is a permutation by construction: its
        values are its keys, each once, and every key is a nonnegative
        integer.  The caller states why that holds.  ``succ`` is kept, not
        copied, and its insertion order does not matter.
        """
        perm = cls.__new__(cls)
        perm._succ = succ
        perm._cycles = perm._pred = None
        return perm

    @property
    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Canonical cycles, computed on first use and cached.  Each is
        walked from the least label not yet seen, so it comes out canonical."""
        if self._cycles is None:
            unseen = dict(self._succ)
            cycles = []
            for x in sorted(unseen):
                if x in unseen:
                    cyc = [x]
                    while (y := unseen.pop(cyc[-1])) != x:
                        cyc.append(y)
                    cycles.append(tuple(cyc))
            self._cycles = tuple(cycles)
        return self._cycles

    @property
    def ground_set(self) -> tuple[int, ...]:
        return tuple(sorted(self._succ))

    @property
    def size(self) -> int:
        return len(self._succ)

    @property
    def is_derangement(self) -> bool:
        return all(map(operator.ne, self._succ, self._succ.values()))

    def fixed_points(self) -> tuple[int, ...]:
        return tuple(sorted(x for x, y in self._succ.items() if x == y))

    def _require(self, x: int) -> None:
        if x not in self._succ:
            raise DomainError(f"unknown label: {x}")

    def image(self, x: int) -> int:
        self._require(x)
        return self._succ[x]

    def preimage(self, x: int) -> int:
        self._require(x)
        if self._pred is None:
            self._pred = dict(zip(self._succ.values(), self._succ))
        return self._pred[x]

    def serialize(self) -> str:
        return "".join("(" + " ".join(str(x) for x in cyc) + ")" for cyc in self.cycles)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CycleDecomposition):
            return NotImplemented
        return self._succ == other._succ

    def __hash__(self) -> int:
        return hash(self.cycles)

    def __repr__(self) -> str:
        return f"CycleDecomposition.parse({self.serialize()!r})"

    @classmethod
    def parse(cls, text: str) -> "CycleDecomposition":
        return parse_cycles(text)


def _check_labels(cycles: Iterable[tuple[int, ...]]) -> None:
    """Raise ``DomainError`` for the first empty cycle, negative label or
    repeated label, scanning cycle by cycle and label by label."""
    seen: set[int] = set()
    for cyc in cycles:
        if not cyc:
            raise DomainError("empty cycle")
        for x in cyc:
            if x < 0:
                raise DomainError(f"negative label: {x}")
            if x in seen:
                raise DomainError(f"repeated label: {x}")
            seen.add(x)


def parse_cycles(text: str, *, size: int | None = None,
                 require_derangement: bool = False) -> CycleDecomposition:
    """Parse disjoint cycle notation like ``(0 5 3)(1 4 2)``.

    A parenthesized group without spaces is read digit by digit, so the
    compact form ``(053)(142)`` works whenever every label is a single
    digit; multi-digit labels need spaces.  With ``size`` given, the ground
    set must be exactly {0, ..., size-1}.  Syntax problems raise
    ``FormatError`` with a 1-based column; semantic problems raise
    ``DomainError`` naming the offending label.
    """
    cycles: list[list[int]] = []
    i, n = 0, len(text)

    def syntax(pos: int, msg: str) -> None:
        raise FormatError(f"column {pos + 1}: {msg}")

    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch != "(":
            syntax(i, f"expected '(' but found {ch!r}")
        close = text.find(")", i + 1)
        if close == -1:
            syntax(i, "unclosed '('")
        body = text[i + 1 : close]
        tokens = body.split()  # splits exactly where str.isspace holds
        if not tokens:
            syntax(i + 1, "empty cycle")
        compact = tokens == [body]  # no whitespace: one label per digit
        if compact:
            tokens = list(body)
        digits = "".join(tokens)
        if not (digits.isascii() and digits.isdigit()):
            bad = next(tok for tok in tokens if not (tok.isascii() and tok.isdigit()))
            # only ASCII digits and whitespace precede it, so its first
            # occurrence after the '(' is the token itself
            syntax(text.index(bad, i + 1),
                   f"expected {'a digit' if compact else 'an integer'} but found {bad!r}")
        cycles.append(list(map(int, tokens)))
        i = close + 1
    if not cycles:
        raise FormatError("column 1: expected '(' but found end of input")
    perm = CycleDecomposition(cycles)  # names the first repeated label
    if size is not None:
        ground = perm.ground_set
        for x in ground:
            if x >= size:
                raise DomainError(f"label {x} out of range for size {size}")
        if len(ground) < size:  # sorted and inside range(size): the first gap is missing
            gap = next((i for i, x in enumerate(ground) if i != x), len(ground))
            raise DomainError(f"missing label: {gap}")
    if require_derangement:
        for cyc in cycles:  # input order, not canonical order
            if len(cyc) == 1:
                raise DomainError(f"fixed point: {cyc[0]}")
    return perm
