"""Hierarchical spans: the library's tracing primitive.

A *span* is one timed region of work — an engine evaluation, a QLhs
program run, a GMhs loading stage — with a name, free-form attributes,
monotonic start/duration, integer counters (interpreter steps, oracle
questions, cache hits), and a parent: spans opened while another span
is open nest under it, forming the tree a JSONL trace serializes.

The span stack is **thread-local**; the active
:class:`~repro.trace.recorder.TraceRecorder` is process-global
(installed with :func:`install` / the :func:`recording` context
manager).  When no recorder is installed, :func:`span` returns a
shared no-op context manager — tracing then costs one global read and
one truthiness test per call site, which is what keeps the E16
overhead budget at ~0%.

Because the stack is thread-local, a span opened on a fresh thread
roots its own subtree: parentage never crosses a thread boundary.
Across a *process* boundary, :func:`replay_records` re-parents a
worker's serialized spans under the coordinator's span.  Mutate
(``count``/``set``) a span only from the thread that opened it.

Doctest::

    >>> from repro.trace import TraceRecorder, recording, span
    >>> rec = TraceRecorder()
    >>> with recording(rec):
    ...     with span("outer", query="Q1") as outer:
    ...         with span("inner") as inner:
    ...             inner.count("steps", 41)
    ...             inner.count("steps")
    >>> trace = rec.trace()
    >>> [s.name for s in trace.ordered()]      # start order
    ['outer', 'inner']
    >>> outer, inner = trace.ordered()
    >>> inner.counters["steps"]
    42
    >>> inner.parent_id == outer.span_id
    True
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from ..errors import OutOfFuel

#: Span status values: ``ok``, ``error``, or a budget reason
#: (``out_of_fuel`` / ``deadline`` / ``cancelled``).
STATUS_OK = "ok"
STATUS_ERROR = "error"

_ids = itertools.count(1)


@dataclass
class Span:
    """One finished or in-flight traced region."""

    name: str
    attrs: dict = field(default_factory=dict)
    span_id: int = 0
    parent_id: int | None = None
    depth: int = 0
    start: float = 0.0
    duration: float | None = None
    status: str = STATUS_OK
    counters: dict = field(default_factory=dict)
    discarded: bool = field(default=False, repr=False, compare=False)

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to this span's integer counter ``name``."""
        self.counters[name] = self.counters.get(name, 0) + n

    def set(self, **attrs) -> None:
        """Attach (or overwrite) attributes on this span."""
        self.attrs.update(attrs)

    def discard(self) -> None:
        """Leave this span out of the trace: it is not recorded when it
        closes.  For a probe that hands its work to a span opened
        elsewhere, so one unit of work records one span."""
        self.discarded = True

    def to_record(self, epoch: float = 0.0) -> dict:
        """A JSON-safe dict (one JSONL line), times in µs from ``epoch``."""
        record = {
            "id": self.span_id,
            "parent": self.parent_id,
            "depth": self.depth,
            "name": self.name,
            "start_us": int((self.start - epoch) * 1e6),
            "dur_us": (None if self.duration is None
                       else int(self.duration * 1e6)),
            "status": self.status,
        }
        if self.attrs:
            record["attrs"] = {k: _json_safe(v)
                               for k, v in self.attrs.items()}
        if self.counters:
            record["counters"] = dict(self.counters)
        return record


def _json_safe(value):
    """Coerce an attribute value to something ``json.dumps`` accepts."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


class _NullSpan:
    """The do-nothing span handed out while no recorder is installed."""

    __slots__ = ()

    def count(self, name: str, n: int = 1) -> None:
        """No-op counter."""

    def set(self, **attrs) -> None:
        """No-op attribute setter."""

    def discard(self) -> None:
        """No-op (nothing is recorded anyway)."""


NULL_SPAN = _NullSpan()


class _NullSpanCM:
    """A reusable, stateless no-op context manager (zero allocation)."""

    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return NULL_SPAN

    def __exit__(self, *exc) -> None:
        return None


_NULL_CM = _NullSpanCM()


class _State(threading.local):
    """Per-thread span stack."""

    def __init__(self):
        self.stack: list[Span] = []


_state = _State()
_recorder = None  # the process-global active recorder (or None)


def install(recorder) -> None:
    """Make ``recorder`` the process-global trace sink."""
    global _recorder
    _recorder = recorder


def uninstall() -> None:
    """Remove the active recorder; :func:`span` reverts to the no-op."""
    global _recorder
    _recorder = None


def active_recorder():
    """The installed recorder, or ``None``."""
    return _recorder


@contextmanager
def recording(recorder):
    """Install ``recorder`` for the duration of a ``with`` block."""
    previous = _recorder
    install(recorder)
    try:
        yield recorder
    finally:
        install(previous)


class _SpanCM:
    """The live span context manager (only built when recording)."""

    __slots__ = ("_span",)

    def __init__(self, name: str, attrs: dict):
        self._span = Span(name=name, attrs=attrs)

    def __enter__(self) -> Span:
        sp = self._span
        stack = _state.stack
        sp.span_id = next(_ids)
        if stack:
            sp.parent_id = stack[-1].span_id
            sp.depth = stack[-1].depth + 1
        sp.start = time.monotonic()
        stack.append(sp)
        return sp

    def __exit__(self, exc_type, exc, tb) -> None:
        sp = self._span
        sp.duration = time.monotonic() - sp.start
        stack = _state.stack
        if stack and stack[-1] is sp:
            stack.pop()
        if exc is not None:
            if isinstance(exc, OutOfFuel):
                # The budget tripped inside this span; record the
                # machine-readable reason so the JSONL trace shows
                # exactly where the divergence guard fired.
                sp.status = exc.reason
            else:
                sp.status = STATUS_ERROR
        recorder = _recorder
        if recorder is not None and not sp.discarded:
            recorder.record(sp)
        return None


def span(name: str, **attrs):
    """Open a traced region: ``with span("engine.eval", db=name) as sp:``.

    Returns a context manager yielding the :class:`Span` (so the body
    can ``sp.count(...)`` / ``sp.set(...)``).  When no recorder is
    installed the shared no-op context manager is returned instead.
    """
    if _recorder is None:
        return _NULL_CM
    return _SpanCM(name, attrs)


def current_span():
    """The innermost open span on this thread (or the no-op span)."""
    stack = _state.stack
    return stack[-1] if stack else NULL_SPAN


def add_counter(name: str, n: int = 1) -> None:
    """Add ``n`` to counter ``name`` on the innermost open span."""
    current_span().count(name, n)


def replay_records(records, parent=None, *, base_start: float | None = None):
    """Re-record spans serialized in *another process* under ``parent``.

    The sharded executor's span join (:mod:`repro.engine.shard`): a
    worker process traces into its own private recorder, serializes
    the spans with :meth:`Span.to_record`
    (times in µs from the worker's task epoch), and ships them back;
    the coordinator calls this at the join.  Each record becomes a
    fresh local :class:`Span` with a **new** span id (worker ids live
    in a different process and would collide), internal parent links
    are remapped, worker roots are re-parented under ``parent``, and
    depths are shifted so the replayed subtree nests where the shard
    was dispatched.  ``base_start`` anchors the worker's relative
    timestamps on this process's monotonic clock (defaults to "now").

    No-op (returns ``[]``) when no recorder is installed.  Returns the
    replayed spans in record order.

    Doctest::

        >>> from repro.trace import TraceRecorder, recording, span
        >>> worker_rec = TraceRecorder()
        >>> with recording(worker_rec):
        ...     with span("shard.task") as sp:
        ...         sp.count("steps", 3)
        >>> records = [s.to_record() for s in worker_rec.trace().ordered()]
        >>> rec = TraceRecorder()
        >>> with recording(rec):
        ...     with span("coordinator") as root:
        ...         _ = replay_records(records, root)
        >>> [(s.name, s.depth) for s in rec.trace().ordered()]
        [('coordinator', 0), ('shard.task', 1)]
    """
    recorder = _recorder
    if recorder is None or not records:
        return []
    if parent is NULL_SPAN:
        parent = None
    base = time.monotonic() if base_start is None else base_start
    offset = 0 if parent is None else parent.depth + 1
    root_depth = min(rec.get("depth", 0) for rec in records)
    fresh: dict[int, Span] = {}
    replayed = []
    for rec in records:
        sp = Span(name=rec["name"],
                  attrs=dict(rec.get("attrs", {})),
                  counters=dict(rec.get("counters", {})))
        sp.span_id = next(_ids)
        sp.depth = offset + rec.get("depth", 0) - root_depth
        sp.start = base + rec.get("start_us", 0) / 1e6
        dur = rec.get("dur_us")
        sp.duration = None if dur is None else dur / 1e6
        sp.status = rec.get("status", STATUS_OK)
        fresh[rec["id"]] = sp
        replayed.append(sp)
    for rec, sp in zip(records, replayed):
        worker_parent = rec.get("parent")
        if worker_parent in fresh:
            sp.parent_id = fresh[worker_parent].span_id
        elif parent is not None:
            sp.parent_id = parent.span_id
        recorder.record(sp)
    return replayed

