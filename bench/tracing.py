"""In-memory spans around calls into the syzstab modules.

A span is ``(name, start_ns, end_ns, parent)``, where ``parent`` is the
index of the enclosing span or -1.  The first dotted component of a name is
its layer: one of the package modules (``monomial``, ``families``,
``criterion``, ``search``, ``cli``) or ``bench`` for the harness itself.
Spans are recorded only by the benchmark's own code, around its calls into
the package, plus two rebound module attributes (see ``patched``); no
package source is edited.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter_ns


class NullTracer:
    """Untraced runs: every call goes straight through."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, key, value=1):
        pass


class Tracer:
    """Records spans and counters in memory; ``write`` dumps them at the end."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        self.spans.append(None)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            # A tuple of atoms, which the garbage collector stops tracking.
            self.spans[index] = (name, start, perf_counter_ns(), parent)
            self._stack.pop()

    def count(self, key, value=1):
        self.counts[key] += value

    def totals(self) -> tuple[dict[str, float], Counter]:
        """Seconds and number of spans per span name."""
        seconds: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for name, start, end, _ in self.spans:
            seconds[name] += (end - start) / 1e9
            calls[name] += 1
        return seconds, calls

    def child_seconds(self, parent_name: str) -> float:
        """Seconds spent in spans whose parent span has ``parent_name``."""
        return sum(
            (end - start) / 1e9
            for _, start, end, parent in self.spans
            if parent >= 0 and self.spans[parent][0] == parent_name
        )

    def layer_self_seconds(self) -> dict[str, float]:
        """Each layer's self time: span durations minus the parts of their
        intervals that child spans cover (children nest strictly)."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        layers: dict[str, float] = defaultdict(float)
        for (name, *_), ns in zip(self.spans, own):
            layers[name.split(".", 1)[0]] += ns / 1e9
        return layers

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")


@contextmanager
def patched(module, attr: str, wrap):
    """Rebind ``module.attr`` to ``wrap(original)`` for the duration."""
    original = getattr(module, attr)
    setattr(module, attr, wrap(original))
    try:
        yield
    finally:
        setattr(module, attr, original)
