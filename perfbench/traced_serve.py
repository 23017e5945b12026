"""Run ``python -m repro serve`` with benchmark-owned spans around each layer.

Usage (``run.py`` starts it with the arguments it would give
``python -m repro serve``)::

    PYTHONPATH=src python3 perfbench/traced_serve.py SPANS.json [serve args...]

Before the server is built, each public call in :data:`LAYERS` is
wrapped.  A wrapper records one span in memory -- its id, parent span,
request id, name, start and end on ``time.monotonic_ns`` (on Linux the
same clock in every process, so the client's window bounds apply) --
and the spans are written to ``SPANS.json`` when the server stops on
SIGINT.  The program's code is not changed.  Two further additions
make the spans and counters complete:

* the serve thread pool runs each task in a copy of the submitting
  request's context, so spans opened on a worker thread keep their
  request id and parent;
* ``GET /stats`` gains a ``perfbench`` section with two counters the
  program keeps but does not report there: the ``≅_B`` oracle calls of
  every built hs database (``db.equiv.calls``) and the number of spans
  the server's own trace recorder has taken.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor

#: ``(module, owner class or None for a module function, attribute,
#: span name)``.  The server closes every connection after one request,
#: so the ``ServeApp.handle`` span is the request's root: the only span
#: that opens a new request id.
LAYERS = (
    ("repro.serve.server", "ServeApp", "handle", "serve.request"),
    ("repro.serve.server", None, "read_request", "protocol.read_request"),
    ("repro.serve.tenants", "Tenant", "admit", "tenants.admit"),
    ("repro.serve.tenants", "Tenant", "settle", "tenants.settle"),
    ("repro.serve.catalog", "Catalog", "compile", "catalog.compile"),
    # Called only when the compile memo misses.
    ("repro.serve.catalog", None, "lower_all", "catalog.lower_all"),
    ("repro.engine.cache", "PlanCache", "prepared", "optimize.prepared"),
    # Called (and imported at call time) only when the prepared-plan
    # memo misses.
    ("repro.engine.optimize", None, "optimize_result", "optimize.optimize"),
    ("repro.engine.executor", None, "compile_plan", "compile.compile_plan"),
    ("repro.engine.executor", "Engine", "eval", "executor.eval"),
    ("repro.store.backend", "Store", "lookup_verdict", "store.lookup_verdict"),
    ("repro.store.backend", "Store", "put_verdict", "store.put_verdict"),
    ("repro.store.backend", "Store", "load_results", "store.load_results"),
    ("repro.engine.shard", "ShardExecutor", "eval_batch", "shard.eval_batch"),
)

ROOT = "serve.request"

#: The innermost open span as ``(span id, request id)``.  asyncio gives
#: each connection task its own copy; :class:`ContextPool` hands it on.
_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=(None, None))


class SpanLog:
    """Spans kept in memory as ``(id, parent, request, name, start_ns,
    end_ns)`` rows.  ``list.append`` is atomic, so the event loop and
    the pool threads may record at the same time."""

    def __init__(self):
        self.rows: list[tuple] = []
        self._span_ids = itertools.count(1)
        self._request_ids = itertools.count(1)

    def wrap(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a wrapper that records span ``name``."""
        fn = getattr(owner, attr)
        rows, span_ids, request_ids = (self.rows, self._span_ids,
                                       self._request_ids)

        def enter():
            parent, request = _CURRENT.get()
            if name == ROOT:
                request = next(request_ids)
            sid = next(span_ids)
            return (sid, parent, request), _CURRENT.set((sid, request))

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def wrapper(*args, **kwargs):
                head, token = enter()
                start = time.monotonic_ns()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    rows.append((*head, name, start, time.monotonic_ns()))
                    _CURRENT.reset(token)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                head, token = enter()
                start = time.monotonic_ns()
                try:
                    return fn(*args, **kwargs)
                finally:
                    rows.append((*head, name, start, time.monotonic_ns()))
                    _CURRENT.reset(token)
        setattr(owner, attr, wrapper)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.rows}, fh, separators=(",", ":"))


class ContextPool(ThreadPoolExecutor):
    """A thread pool that runs each task in a copy of the submitter's
    context (``loop.run_in_executor`` alone does not)."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn,
                              *args, **kwargs)


def _with_counters(stats):
    @functools.wraps(stats)
    def wrapper(self):
        payload = stats(self)
        catalog = self.catalog
        payload["perfbench"] = {
            "equiv_calls": sum(catalog.engine(name, "hs").db.equiv.calls
                               for name in catalog.built()),
            "recorder_spans": len(self.recorder) + self.recorder.dropped,
        }
        return payload
    return wrapper


def install(log: SpanLog) -> None:
    """Wrap every call in :data:`LAYERS` and extend ``GET /stats``."""
    for module_name, owner_name, attr, name in LAYERS:
        module = importlib.import_module(module_name)
        owner = module if owner_name is None else getattr(module, owner_name)
        log.wrap(owner, attr, name)
    server = importlib.import_module("repro.serve.server")
    server.ThreadPoolExecutor = ContextPool
    server.ServeApp.stats = _with_counters(server.ServeApp.stats)


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: traced_serve.py SPANS.json [serve args...]",
              file=sys.stderr)
        return 2
    log = SpanLog()
    install(log)
    from repro.__main__ import main as repro_main
    try:
        return repro_main(["serve", *argv[1:]])
    finally:
        log.dump(argv[0])


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
