"""Span recorder: times the calls into each layer from outside the program.

``Recorder.wrap(owner, attribute, name)`` replaces one public callable on a
live object (or one function name in a module namespace) by a wrapper that
records a span around every call; ``unwrap_all`` puts the originals back.
Nothing under ``src/`` is edited and no wrapper exists during the untraced
run.

A span is ``{name, start, end, parent, batch}``: ``parent`` is the index of
the span that was open on the same thread when this one started (``None``
for a root) and ``batch`` is the identifier of its root, so all spans of one
client-visible call share it.  Spans stay in memory; ``write`` dumps them as
JSON lines when the workload ends.

A span's *self time* is its duration minus the durations of its direct
children — the time spent in that layer's own code.  Self times of all spans
under a root add up to the root's duration exactly, which is what lets the
per-layer waterfall be read as shares of a call.  ``Recorder.window`` sums
over the spans between two ``mark`` positions, so one replay out of several
can be read on its own.
"""

from __future__ import annotations

import json
import threading
from collections import defaultdict
from time import perf_counter
from typing import Callable

NAME, START, END, PARENT, BATCH = range(5)


class Recorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack = threading.local()
        self._lock = threading.Lock()
        self._installed: list[tuple[object, str, bool, object]] = []

    # ------------------------------------------------------------ wrapping

    def wrap(self, owner: object, attribute: str, name: str,
             on_result: Callable[[object], None] | None = None) -> None:
        """Record a span named ``name`` around ``owner.attribute(...)``.

        Raises ``AttributeError`` when ``owner`` has no such attribute: a
        layer metric fed by a callable that is gone must fail, not read 0.
        ``on_result`` sees the return value — the hook for counts the
        public API already returns.
        """
        original = getattr(owner, attribute)
        spans, stack_holder, lock = self.spans, self._stack, self._lock

        def traced(*args, **kwargs):
            stack = getattr(stack_holder, "open", None)
            if stack is None:
                stack = stack_holder.open = []
            with lock:
                index = len(spans)
                parent = stack[-1] if stack else None
                batch = spans[parent][BATCH] if stack else index
                span = [name, 0.0, 0.0, parent, batch]
                spans.append(span)
            stack.append(index)
            span[START] = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        had_own = attribute in getattr(owner, "__dict__", {})
        setattr(owner, attribute, traced)
        self._installed.append((owner, attribute, had_own, original))

    def unwrap_all(self) -> None:
        """Restore every wrapped callable, newest first."""
        while self._installed:
            owner, attribute, had_own, original = self._installed.pop()
            if had_own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)

    # ------------------------------------------------------------ analysis

    def mark(self) -> int:
        """Position in the span list; two marks delimit one replay."""
        return len(self.spans)

    def window(self, first: int = 0, last: int | None = None) -> "Window":
        """The spans recorded between two marks, ready to be summed."""
        return Window(self.spans, first,
                      len(self.spans) if last is None else last)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps({
                    "name": span[NAME], "start": span[START],
                    "end": span[END], "parent": span[PARENT],
                    "batch": span[BATCH],
                }) + "\n")


class Window:
    """Sums over a contiguous run of spans (whole calls, roots included)."""

    def __init__(self, spans: list[list], first: int, last: int) -> None:
        self._spans = spans
        self._first, self._last = first, last

    def __iter__(self):
        return iter(self._spans[self._first:self._last])

    def self_seconds(self) -> dict[str, float]:
        """Total self time per span name."""
        own = [span[END] - span[START] for span in self]
        for span in self:
            if span[PARENT] is not None:
                own[span[PARENT] - self._first] -= span[END] - span[START]
        totals: dict[str, float] = defaultdict(float)
        for span, seconds in zip(self, own):
            totals[span[NAME]] += seconds
        return dict(totals)

    def total_seconds(self) -> dict[str, float]:
        """Total duration per span name (children included)."""
        totals: dict[str, float] = defaultdict(float)
        for span in self:
            totals[span[NAME]] += span[END] - span[START]
        return dict(totals)

    def calls(self) -> dict[str, int]:
        counts: dict[str, int] = defaultdict(int)
        for span in self:
            counts[span[NAME]] += 1
        return dict(counts)
