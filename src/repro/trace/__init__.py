"""``repro.trace`` — hierarchical tracing and unified resource budgets.

The observability and governance substrate every interpreter in the
library executes under:

* :mod:`repro.trace.budget` — :class:`Budget`: max steps, max oracle
  questions, wall-clock deadline, cooperative :meth:`Budget.cancel`;
  the :func:`as_budget` coercion every governed entry point applies to
  its ``budget=`` argument;
* :mod:`repro.trace.limits` — the single registry of every default
  budget in the library (rendered as ``docs/limits.md`` and
  cross-checked by a unit test);
* :mod:`repro.trace.spans` — hierarchical :func:`span` regions with a
  thread-local stack, monotonic timings, and counters (interpreter
  steps, oracle questions, cache hits);
* :mod:`repro.trace.recorder` — the ring-buffer :class:`TraceRecorder`
  and the :class:`Trace` snapshot with JSON-lines export.

Quick use::

    from repro.trace import Budget, TraceRecorder, recording

    recorder = TraceRecorder()
    with recording(recorder):
        engine.eval(plan, budget=Budget(max_steps=10_000, deadline=2.0))
    print(recorder.trace().to_jsonl())

Divergence contract (see ``docs/limits.md``): a tripped budget raises
:class:`~repro.errors.OutOfFuel` with a machine-readable ``reason``
(``out_of_fuel`` / ``deadline`` / ``cancelled``); ``Engine.eval``
converts it into ``Verdict.UNKNOWN`` so callers get a sound partial
answer instead of an exception.
"""

from .budget import (
    CANCELLED,
    DEADLINE,
    OUT_OF_FUEL,
    REASONS,
    Budget,
    as_budget,
)
from .recorder import Trace, TraceRecorder
from .spans import (
    NULL_SPAN,
    Span,
    active_recorder,
    add_counter,
    current_span,
    install,
    recording,
    replay_records,
    span,
    uninstall,
)

__all__ = [
    "CANCELLED",
    "DEADLINE",
    "NULL_SPAN",
    "OUT_OF_FUEL",
    "REASONS",
    "Budget",
    "Span",
    "Trace",
    "TraceRecorder",
    "active_recorder",
    "add_counter",
    "as_budget",
    "current_span",
    "install",
    "recording",
    "replay_records",
    "span",
    "uninstall",
]
