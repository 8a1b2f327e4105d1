"""Spans around the program's public functions, recorded from outside.

``Tracer.install`` replaces chosen functions, methods and constructors
with wrappers that record one span per call: a name, a start, an end and
the span that was open when the call began.  A function is replaced in
every module namespace that binds it, so ``from .bijection import forward``
style imports are traced too.  Spans are kept in flat arrays while the
program runs and are summed or written out only when the caller asks,
outside any timed section.

Self time is a span's duration minus the durations of its child spans;
calls are strictly nested in one thread, so the children never overlap.
Inclusive time counts only the outermost span of a name, so recursive
calls are not counted twice.
"""

from __future__ import annotations

import functools
import gzip
import time
from array import array


class Tracer:
    """Span recorder for one thread; ``install`` it, run, ``uninstall``,
    then read ``summary`` and ``counts``."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self._name = array("H")
        self._parent = array("q")
        self._outer = array("B")
        self._start = array("q")
        self._end = array("q")
        self._open = [-1]
        self._active: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return self._ids[name]

    def wrap(self, fn, name: str):
        """``fn`` recording one span named ``name`` per call."""
        sid = self._id(name)
        names, parents, outer, starts, ends = (
            self._name, self._parent, self._outer, self._start, self._end)
        stack, active, clock = self._open, self._active, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            names.append(sid)
            parents.append(stack[-1])
            outer.append(active[sid] == 0)
            ends.append(0)
            stack.append(i)
            active[sid] += 1
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                active[sid] -= 1
                stack.pop()

        return traced

    def wrap_generator(self, fn, name: str, counter: str):
        """Generator function ``fn`` recording one span per item it
        produces, covering only the time spent inside the generator, and
        counting the items under ``counter``."""
        step = self.wrap(next, name)
        counts = self.counts
        counts.setdefault(counter, 0)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                try:
                    item = step(it)
                except StopIteration:
                    return
                counts[counter] += 1
                yield item

        return traced

    def install(self, modules, functions, methods) -> None:
        """Wrap ``functions`` (module-level ``(module, attr, span name)``)
        wherever ``modules`` bind them, and ``methods``
        (``(class, attr, span name)``) on their class.  Generator functions
        take a fourth field, the name of their item counter."""
        for module, attr, name, *counter in functions:
            fn = getattr(module, attr)
            wrapped = (self.wrap_generator(fn, name, counter[0]) if counter
                       else self.wrap(fn, name))
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        self._patch(m, key, wrapped)
        for cls, attr, name in methods:
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(raw.__func__, name))
            else:
                wrapped = self.wrap(raw, name)
            self._patch(cls, attr, wrapped)

    def _patch(self, owner, key: str, value) -> None:
        self._patches.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def clear(self) -> None:
        """Drop the recorded spans and zero the counters."""
        for a in (self._name, self._parent, self._outer, self._start, self._end):
            del a[:]
        for key in self.counts:
            self.counts[key] = 0

    @property
    def span_count(self) -> int:
        return len(self._start)

    def summary(self) -> dict[str, dict[str, int]]:
        """Per span name: ``calls``, inclusive ``incl_ns`` and ``self_ns``."""
        n = len(self._start)
        dur = array("q", (e - s for s, e in zip(self._start, self._end)))
        covered = array("q", bytes(8 * n))
        for i, p in enumerate(self._parent):
            if p >= 0:
                covered[p] += dur[i]
        out = {name: {"calls": 0, "incl_ns": 0, "self_ns": 0} for name in self.names}
        rows = [out[name] for name in self.names]
        for i in range(n):
            row = rows[self._name[i]]
            row["calls"] += 1
            row["self_ns"] += dur[i] - covered[i]
            if self._outer[i]:
                row["incl_ns"] += dur[i]
        return out

    def dump(self, path) -> None:
        """Write the spans to ``path``, gzip-compressed: a header line of
        names, then one tab-separated line per span with its index, its
        parent's index (-1 for none), its name's index in the header, and
        its start and end in ns from the first span's start."""
        t0 = self._start[0] if self._start else 0
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("# names " + " ".join(self.names) + "\n")
            for i in range(len(self._start)):
                f.write(f"{i}\t{self._parent[i]}\t{self._name[i]}"
                        f"\t{self._start[i] - t0}\t{self._end[i] - t0}\n")
