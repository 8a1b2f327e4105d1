"""Reference values and output checks for the benchmark, made apart from
the program under test.

Nothing here imports ``derangetree``.  Counts come from recurrences and
closed forms or from a brute-force enumeration written from the
definitions; tree and cycle texts are read by this module's own parsers.
Every ``check_*`` function takes the stdout of a command that exited 0.
It raises ``CheckFailed`` naming the first problem it finds and returns
nothing when the output is right.
"""

from __future__ import annotations

import itertools
import json
import math
import re


class CheckFailed(Exception):
    """An output of the program disagrees with the reference."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# -- reference counts --

def derangement_numbers(max_n: int) -> list[int]:
    """D(0..max_n) by D(n) = (n-1)(D(n-1) + D(n-2)), D(0) = 1, D(1) = 0."""
    d = [1, 0]
    for n in range(2, max_n + 1):
        d.append((n - 1) * (d[n - 1] + d[n - 2]))
    return d[: max_n + 1]


def rank_histograms(max_n: int) -> dict[int, dict[int, int]]:
    """For n = 1..max_n, how many vertices of each rank there are over all
    increasing trees of size n.

    Trees are enumerated by choosing each vertex's parent among the smaller
    labels.  Ranks are filled from the largest label down, since every
    child is larger than its parent.
    """
    out = {}
    for n in range(1, max_n + 1):
        hist: dict[int, int] = {}
        for parents in itertools.product(*(range(v) for v in range(1, n))):
            best_child = [None] * n
            for v in range(n - 1, -1, -1):
                r = 0 if best_child[v] is None else best_child[v] + 1
                hist[r] = hist.get(r, 0) + 1
                if v:
                    p = parents[v - 1]
                    if best_child[p] is None or r < best_child[p]:
                        best_child[p] = r
        out[n] = hist
    return out


def rank_count_column(k: int, max_n: int, hists: dict[int, dict[int, int]]) -> dict[int, int]:
    """Expected ``stats rank-counts --k k`` column for n = 1..max_n.

    k = 0 uses the closed form n!/2 (n >= 2) and k = 1 the derangement
    numbers; other k come from the enumeration in ``rank_histograms``.
    """
    if k == 0:
        return {n: 1 if n == 1 else math.factorial(n) // 2 for n in range(1, max_n + 1)}
    if k == 1:
        d = derangement_numbers(max_n)
        return {n: d[n] for n in range(1, max_n + 1)}
    return {n: hists[n].get(k, 0) for n in range(1, max_n + 1)}


# -- the program's text formats, read independently --

_MARKED_TREE = re.compile(r"size=(\d+);parents=([0-9,]*);mark=(\d+)")
_CYCLE = re.compile(r"\(([0-9 ]+)\)")


def parse_marked_tree(text: str) -> tuple[list[int], int]:
    """``size=n;parents=p1,...;mark=k`` as (parent list with parent[0] = -1, mark)."""
    m = _MARKED_TREE.fullmatch(text.strip())
    _require(m is not None, f"not a marked tree: {text[:60]!r}")
    n = int(m.group(1))
    body = m.group(2)
    entries = [int(x) for x in body.split(",")] if body else []
    _require(n >= 1 and len(entries) == n - 1,
             f"size={n} with {len(entries)} parent entries")
    return [-1] + entries, int(m.group(3))


def parse_cycle_text(text: str) -> list[tuple[int, ...]]:
    """``(a b c)(d e)`` as a list of cycles; the whole text must be cycles."""
    text = text.strip()
    cycles = [tuple(int(x) for x in body.split()) for body in _CYCLE.findall(text)]
    _require(bool(cycles) and _CYCLE.sub("", text) == "", f"not cycle notation: {text[:60]!r}")
    return cycles


def cycle_text(cycles) -> str:
    """Canonical cycle notation: each cycle rotated to start at its minimum,
    cycles sorted by their minimum."""
    canon = []
    for c in cycles:
        i = c.index(min(c))
        canon.append(tuple(c[i:]) + tuple(c[:i]))
    canon.sort()
    return "".join("(" + " ".join(map(str, c)) + ")" for c in canon)


def cycles_of_word(word) -> list[tuple[int, ...]]:
    """Cycles of the permutation i -> word[i]."""
    seen = [False] * len(word)
    out = []
    for i in range(len(word)):
        if not seen[i]:
            c = []
            while not seen[i]:
                seen[i] = True
                c.append(i)
                i = word[i]
            out.append(tuple(c))
    return out


def check_derangement_text(text: str, n: int) -> None:
    """``text`` is canonical cycle notation of a derangement of 0..n-1."""
    cycles = parse_cycle_text(text)
    labels = sorted(x for c in cycles for x in c)
    _require(labels == list(range(n)), f"cycles do not cover 0..{n - 1} exactly once")
    _require(all(len(c) >= 2 for c in cycles), "fixed point in a derangement")
    _require(cycle_text(cycles) == text.strip(), "cycle text is not canonical")


# -- checks on command outputs --

def check_verify(out: str, max_size: int) -> None:
    """``verify --max-size max_size --json``."""
    reports = json.loads(out)
    _require([r["n"] for r in reports] == list(range(2, max_size + 1)),
             "verify did not report every size 2..max-size")
    d = derangement_numbers(max_size)
    for r in reports:
        n = r["n"]
        _require(r["ok"] is True and r["round_trip_failures"] == [], f"n={n} not ok")
        _require(r["derangement_count"] == d[n], f"n={n} derangement_count != D(n)")
        _require(r["marked_tree_count"] == d[n], f"n={n} marked_tree_count != D(n)")
        _require(sum(r["case_histogram"].values()) == d[n],
                 f"n={n} case histogram does not sum to D(n)")


def check_rank_counts(out: str, k: int, expected: dict[int, int]) -> None:
    """``stats rank-counts --max-size N --k k`` against the expected column."""
    lines = out.splitlines()
    _require(lines[:1] == ["n k count"], "rank-counts header missing")
    rows = [tuple(int(x) for x in line.split()) for line in lines[1:]]
    want = [(n, k, c) for n, c in sorted(expected.items())]
    for got, exp in itertools.zip_longest(rows, want):
        _require(got == exp, f"rank-counts k={k}: got {got}, expected {exp}")


def check_recurrence(out: str, max_size: int) -> None:
    """``stats recurrence --max-size max_size``: counts are D(n), the first
    residual is 0 and the second is D(n) - n*D(n-1) - n*D(n-2)."""
    lines = out.splitlines()
    _require(len(lines) == max_size + 1, "recurrence table has the wrong number of rows")
    d = derangement_numbers(max_size)
    for n, line in enumerate(lines[1:], start=1):
        fields = line.split()
        if n < 3:
            want = [str(n), str(d[n]), "-", "-"]
        else:
            want = [str(n), str(d[n]), "0", str(d[n] - n * d[n - 1] - n * d[n - 2])]
        _require(fields == want, f"recurrence row {n}: got {fields}, expected {want}")


def check_map(out: str, n: int, cycles) -> None:
    """``map --size n <cycles>``: a valid marked increasing tree with n-1
    hung where the construction puts it."""
    parent, mark = parse_marked_tree(out)
    _require(len(parent) == n, f"tree size {len(parent)} != {n}")
    _require(all(0 <= parent[v] < v for v in range(1, n)), "a parent is not smaller than its child")
    _require(0 <= mark < n, f"mark {mark} out of range")
    has_child = [False] * n
    for v in range(1, n):
        has_child[parent[v]] = True
    _require(any(parent[v] == mark and not has_child[v] for v in range(1, n)),
             f"mark {mark} has no leaf child")
    top = n - 1
    cyc = next(c for c in cycles if top in c)
    pre = cyc[cyc.index(top) - 1]
    if len(cyc) >= 3:
        _require(parent[top] == pre, f"{top} hangs under {parent[top]}, not p^-1({top}) = {pre}")
    else:
        _require(parent[top] == pre and mark == pre,
                 f"{top} in 2-cycle with {pre}: parent {parent[top]}, mark {mark}")


def check_unmap(out: str, original: str) -> None:
    """``unmap`` of a map output: gives the original cycle text back."""
    _require(out.strip() == original, "unmap(map(p)) differs from p")
