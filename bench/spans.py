"""In-memory span recording around calls into the program's layers.

``Tracer.wrap`` replaces an attribute (a module function or a class method)
with a wrapper that records one span per call: name, start, end and the
span that was open when the call began.  Spans stay in flat lists until
the run ends; ``self_times`` then charges each span its duration minus the
durations of its direct children.  ``Tracer.restore`` puts every original
attribute back.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        """Record one span around a block of code."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def _close(self, index: int):
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def wrap(self, owner, attr: str, name: str, after=None) -> bool:
        """Record a span named ``name`` around every call of ``owner.attr``.

        ``after(args)`` runs once each call has returned, outside the span,
        for counters that need the call's arguments.  Returns False, and
        notes the name in ``missing``, when ``owner`` has no such attribute.
        """
        fn = self._lookup(owner, attr)
        if fn is None:
            return False

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)
                if after is not None:
                    after(args)

        self._replace(owner, attr, traced)
        return True

    def count_calls(self, owner, attr: str, key) -> bool:
        """Count calls of ``owner.attr`` under ``key(args)``, with no span."""
        fn = self._lookup(owner, attr)
        if fn is None:
            return False
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key(args)] += 1
            return fn(*args, **kwargs)

        self._replace(owner, attr, counted)
        return True

    def _lookup(self, owner, attr: str):
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(f"{owner.__name__}.{attr}")
        return fn

    def _replace(self, owner, attr: str, wrapper):
        # the attribute as stored on ``owner``; None when it is inherited
        self._patched.append((owner, attr, vars(owner).get(attr)))
        setattr(owner, attr, wrapper)

    def restore(self):
        for owner, attr, original in reversed(self._patched):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patched.clear()

    def write(self, path):
        """Write every span as ``index parent name start end``, tab separated."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tparent\tname\tstart\tend\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i}\t{self.parents[i]}\t{name}\t"
                         f"{self.starts[i]:.9f}\t{self.ends[i]:.9f}\n")


def self_times(names, parents, starts, ends) -> tuple[dict, Counter]:
    """Total self time and call count per span name.

    A span's self time is its duration minus the durations of its direct
    children; spans nest strictly, so children never overlap each other.
    """
    child_total = [0.0] * len(names)
    for i, parent in enumerate(parents):
        if parent >= 0:
            child_total[parent] += ends[i] - starts[i]
    totals: dict[str, float] = {}
    calls: Counter = Counter()
    for i, name in enumerate(names):
        totals[name] = totals.get(name, 0.0) + (ends[i] - starts[i]
                                                 - child_total[i])
        calls[name] += 1
    return totals, calls
