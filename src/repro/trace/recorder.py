"""Trace sinks: the ring-buffer recorder and the JSONL export.

:class:`TraceRecorder` collects finished :class:`~repro.trace.spans.
Span` objects into a bounded ring buffer (old spans are dropped, and
counted, once ``capacity`` is exceeded — a long-running server can
leave a recorder attached without unbounded growth).  :meth:`TraceRecorder.
trace` snapshots the buffer into an immutable :class:`Trace`, whose
:meth:`Trace.to_jsonl` renders the schema documented in
``docs/tracing.md``.

Doctest::

    >>> from repro.trace import TraceRecorder, recording, span
    >>> rec = TraceRecorder(capacity=2)
    >>> with recording(rec):
    ...     for name in ("a", "b", "c"):
    ...         with span(name):
    ...             pass
    >>> [s.name for s in rec.trace().spans]   # ring buffer kept the tail
    ['b', 'c']
    >>> rec.dropped
    1
    >>> line = rec.trace().to_jsonl().splitlines()[0]
    >>> import json; sorted(json.loads(line))
    ['depth', 'dur_us', 'id', 'name', 'parent', 'start_us', 'status']
"""

from __future__ import annotations

import json
import threading
from collections import deque
from dataclasses import dataclass

from .spans import Span


class TraceRecorder:
    """A bounded sink for finished spans (install via
    :func:`repro.trace.install` or :func:`repro.trace.recording`).

    Thread-safe: spans finish on whichever thread opened them (the
    serving tier's pool threads included), so :meth:`record`, the
    :meth:`trace` snapshot, and :meth:`clear` all run under one lock —
    the ``dropped`` counter stays exact and a snapshot taken while
    workers are still recording is a consistent prefix, never a
    half-updated buffer.
    """

    def __init__(self, capacity: int = 65536):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._spans: deque[Span] = deque(maxlen=capacity)
        self.dropped = 0
        self._lock = threading.Lock()

    def record(self, span: Span) -> None:
        """Append one finished span (evicting the oldest when full)."""
        with self._lock:
            if len(self._spans) == self.capacity:
                self.dropped += 1
            self._spans.append(span)

    def trace(self) -> "Trace":
        """An immutable snapshot of the buffered spans."""
        with self._lock:
            return Trace(tuple(self._spans), dropped=self.dropped)

    def clear(self) -> None:
        """Drop all buffered spans and reset the dropped counter."""
        with self._lock:
            self._spans.clear()
            self.dropped = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    def __repr__(self) -> str:
        return (f"TraceRecorder({len(self._spans)}/{self.capacity} spans, "
                f"{self.dropped} dropped)")


@dataclass(frozen=True)
class Trace:
    """An immutable collection of spans with serialization helpers."""

    spans: tuple[Span, ...]
    dropped: int = 0

    @property
    def epoch(self) -> float:
        """The earliest span start (the zero of exported timestamps)."""
        return min((s.start for s in self.spans), default=0.0)

    def ordered(self) -> list[Span]:
        """Spans sorted by start time (the buffer holds finish order —
        children complete before their parents)."""
        return sorted(self.spans, key=lambda s: (s.start, s.span_id))

    def roots(self) -> list[Span]:
        """Spans whose parent is absent from this trace."""
        ids = {s.span_id for s in self.spans}
        return [s for s in self.ordered()
                if s.parent_id is None or s.parent_id not in ids]

    def children(self, span: Span) -> list[Span]:
        """Direct children of ``span`` within this trace, by start time."""
        return [s for s in self.ordered() if s.parent_id == span.span_id]

    def find(self, name: str) -> list[Span]:
        """All spans with the given name, by start time."""
        return [s for s in self.ordered() if s.name == name]

    def counter_total(self, name: str) -> int:
        """Sum of one counter across all spans."""
        return sum(s.counters.get(name, 0) for s in self.spans)

    def to_jsonl(self) -> str:
        """One JSON object per line, in start order, times relative to
        :attr:`epoch` in microseconds (schema: ``docs/tracing.md``)."""
        epoch = self.epoch
        return "\n".join(
            json.dumps(s.to_record(epoch), sort_keys=True)
            for s in self.ordered())

    def write_jsonl(self, path) -> None:
        """Write :meth:`to_jsonl` (plus a trailing newline) to ``path``."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_jsonl())
            fh.write("\n")

    def format_tree(self) -> str:
        """An indented human-readable rendering (CLI ``trace`` output)."""
        lines = []

        def walk(span: Span, indent: int) -> None:
            dur = ("?" if span.duration is None
                   else f"{span.duration * 1e3:.3f} ms")
            extras = ""
            if span.counters:
                extras = " " + " ".join(
                    f"{k}={v}" for k, v in sorted(span.counters.items()))
            status = "" if span.status == "ok" else f" [{span.status}]"
            lines.append(f"{'  ' * indent}{span.name}  {dur}{status}{extras}")
            for child in self.children(span):
                walk(child, indent + 1)

        for root in self.roots():
            walk(root, 0)
        if self.dropped:
            lines.append(f"({self.dropped} older spans dropped)")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.spans)
