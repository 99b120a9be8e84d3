"""Spans and counters recorded around calls into bwopt, from outside the package.

A traced pass swaps selected functions for wrappers at the module (or class)
where their caller looks them up, runs the workload, then puts the originals
back. Span wrappers record (name, start, end, parent) in memory; hot
boundaries get count-only wrappers with no clock reads. A name that does not
exist at the commit under test is recorded as absent and left alone.

Work the tracer itself does inside a span (hashing obstacle sets, counting
clearance sample pairs) is recorded as a ``trace.bookkeeping`` child span, so
it is subtracted from its parent's self time and shows up as overhead only.
"""
from __future__ import annotations

import functools
import importlib
import math
from collections import Counter
from time import perf_counter

BOOKKEEPING = "trace.bookkeeping"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.absent: list[str] = []      # dotted names not found at this commit
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # ----- patching ------------------------------------------------------

    def _lookup(self, target: str):
        """Resolve 'module:attr' or 'module:Class.attr' to (owner, attr, raw value)."""
        module_name, _, path = target.partition(":")
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            return None
        *owners, attr = path.split(".")
        for name in owners:
            owner = getattr(owner, name, None)
            if owner is None:
                return None
        if isinstance(owner, type):
            raw = owner.__dict__.get(attr)
        else:
            raw = getattr(owner, attr, None)
        return None if raw is None else (owner, attr, raw)

    def _patch(self, target: str, make_wrapper) -> None:
        found = self._lookup(target)
        if found is None:
            self.absent.append(target)
            return
        owner, attr, raw = found
        if isinstance(raw, (classmethod, staticmethod)):
            replacement = type(raw)(make_wrapper(raw.__func__))
        else:
            replacement = make_wrapper(raw)
        self._restore.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def span(self, target: str, name: str, after=None) -> None:
        """Time every call of target as a span called name.

        after(args, result), if given, runs once the span has closed and is
        itself timed as a bookkeeping span under the same parent.
        """
        spans, stack = self.spans, self._stack

        def make_wrapper(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                record = [name, 0.0, 0.0, stack[-1] if stack else -1]
                stack.append(len(spans))
                spans.append(record)
                record[1] = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    record[2] = perf_counter()
                    stack.pop()
                if after is not None:
                    book = [BOOKKEEPING, perf_counter(), 0.0, stack[-1] if stack else -1]
                    spans.append(book)
                    after(args, result)
                    book[2] = perf_counter()
                return result

            return wrapper

        self._patch(target, make_wrapper)

    def count(self, target: str, name: str, amount=None) -> None:
        """Count calls of target (or amount(args) per call) with no span."""
        counts = self.counts

        def make_wrapper(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[name] += 1 if amount is None else amount(args)
                return fn(*args, **kwargs)

            return wrapper

        self._patch(target, make_wrapper)

    def restore(self) -> None:
        """Put every original back, newest patch first."""
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)

    # ----- summaries ------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def busy(self, name: str) -> float:
        """Summed duration of name's spans, not counting those nested in name."""
        spans = self.spans
        total = 0.0
        for s in spans:
            if s[0] != name:
                continue
            parent = s[3]
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < 0:
                total += s[2] - s[1]
        return total

    def self_time(self, name: str) -> float:
        """Summed span durations of name minus the time its direct children cover."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child_time[s[3]] += s[2] - s[1]
        return sum(s[2] - s[1] - child_time[i] for i, s in enumerate(spans) if s[0] == name)

    def to_json(self) -> dict:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {
            "names": names,
            "spans": [[index[s[0]], s[1], s[2], s[3]] for s in self.spans],
            "counts": dict(self.counts),
            "absent": list(self.absent),
        }


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]
