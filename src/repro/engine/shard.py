"""Multi-process execution: plans and coarse work shipped to workers.

Every fixpoint iteration is CPU work that holds the GIL (a run of
``≅_B`` oracle questions, Definition 2.4), so threads cannot run it on
more than one core; the :class:`~repro.engine.executor.Engine` is
sequential, and this module is the one code path that runs work in
parallel — across processes.  The architecture is the paper's own
completeness argument turned into systems leverage: the four frontends
provably compute one semantics, results are keyed by structural
database *fingerprint* (genericity, Definition 2.4), and plans have a
content-hash identity (:mod:`repro.store.codec`) — so work can be
shipped to another process and the answers merged back with
bit-for-bit confidence, checkable by the existing differential
oracles.

Processes pay only for coarse work: :class:`WorkerPool` fans whole
check campaigns (``python -m repro check --workers N``) and whole
databases (:mod:`repro.store.ingest`) across processes.  Per-request
shipping lost to in-process loops on a 2-vCPU host, so the serving
tier does not shard and membership batches are not sharded
(``docs/sharding.md``).  :meth:`ShardExecutor.eval_batch` remains as
the plan-shipping path the ``shard`` oracle and stress hammer check.

Architecture of :meth:`ShardExecutor.eval_batch`:

* **Shard key** — :func:`shard_index` hashes ``(database fingerprint,
  canonical plan text)`` with SHA-256 and reduces modulo the worker
  count.  Deterministic and content-based: the same batch shards the
  same way in every process, on every run.
* **Serialization boundary** — plans cross as
  :func:`~repro.store.codec.canonical_plan_text`, databases as the
  declarative :class:`~repro.serve.config.DatabaseSpec` JSON entry
  (:func:`derive_spec` recovers one from a live builtin/fcf database),
  budgets as :meth:`Budget.ship <repro.trace.Budget.ship>`, verdicts
  and :class:`~repro.engine.stats.EngineStats` as their JSON codecs,
  and trace spans as :meth:`Span.to_record
  <repro.trace.spans.Span.to_record>` rows.
* **Workers** — each worker process keeps a private warm
  :class:`~repro.engine.cache.EngineCache` and one engine per
  ``(spec, view, optimize, compiled)``; it verifies the rebuilt
  database's fingerprint against the coordinator's before answering.
* **The join** — verdicts merge in request order (ordered merge),
  worker budget counters are re-aggregated exactly onto the
  coordinator's per-shard :meth:`~repro.trace.Budget.fork` via
  :meth:`~repro.trace.Budget.absorb`, worker stats fold in through
  :meth:`MutableEngineStats.absorb
  <repro.engine.stats.MutableEngineStats.absorb>`, and worker spans
  are re-parented under the coordinator's span via
  :func:`~repro.trace.spans.replay_records`.
* **Fallbacks** — ``workers <= 1`` runs in-process; a plan that cannot
  serialize (:class:`~repro.store.codec.UnserializablePlanError`, i.e.
  :class:`~repro.engine.plan.MachineFixpoint`) is evaluated locally
  while its batch-mates still fan out.  Either way each local member
  runs under the same budget a worker would give it.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor

from ..errors import RepresentationError, TypeSignatureError
from ..trace import Budget, span
from ..trace.spans import active_recorder, current_span, replay_records

__all__ = [
    "ShardExecutor",
    "ShardTaskError",
    "UnshardableDatabaseError",
    "WorkerPool",
    "derive_spec",
    "shard_index",
]

#: Builder identities (database ``name``) of the builtin hs-r-dbs,
#: mapped to their ``kind: builtin`` config source names.
_BUILTIN_SOURCES = {
    "clique": "clique",
    "rado": "rado",
    "triangles": "triangles",
    "K3+K2": "k3k2",
}


class UnshardableDatabaseError(TypeSignatureError):
    """No shippable construction recipe exists for this database.

    Raised by :func:`derive_spec` when a live database is neither a
    known builtin nor an fcf-r-db; callers with a declarative spec
    pass ``spec=`` explicitly instead, or evaluate in-process with
    :meth:`Engine.eval_batch <repro.engine.executor.Engine.eval_batch>`.
    """


class ShardTaskError(RuntimeError):
    """A worker process failed to answer a shard task.

    Carries the worker-side error text.  Raised at the join — worker
    failures never crash the pool, they come back as error payloads.
    """


def shard_index(fingerprint: str, payload: str, shards: int) -> int:
    """The shard-key contract: which of ``shards`` workers owns one
    batch member.

    SHA-256 over ``(database fingerprint, member payload)`` reduced
    modulo the shard count — a pure function of content, so the same
    member lands on the same shard in every process and every run
    (``payload`` is the member's canonical plan text).
    """
    digest = hashlib.sha256(
        f"{fingerprint}\x1f{payload}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % max(1, shards)


def derive_spec(db) -> dict:
    """A shippable ``{"name", "entry"}`` recipe for a live database.

    The inverse problem of :func:`repro.serve.catalog._build_database`:
    builtin hs-r-dbs are recognized by builder identity (their
    ``name``), fcf-r-dbs serialize their finite parts directly (the
    Definition 4.1 representation *is* the recipe).  Anything else —
    a finite-embedded hs-r-db built in memory, a hand-rolled database —
    raises :class:`UnshardableDatabaseError`; callers that know the
    construction pass the spec explicitly.  Workers verify the rebuilt
    database's fingerprint, so a wrong recipe can never produce a
    silently wrong answer.
    """
    from ..fcf.database import FcfDatabase

    if isinstance(db, FcfDatabase):
        if not db.relations:
            raise UnshardableDatabaseError(
                "cannot ship an fcf database with no relations")
        entry = {"kind": "fcf", "relations": [
            {"rank": value.rank,
             "tuples": [list(t) for t in sorted(value.tuples)],
             **({"cofinite": True} if value.cofinite else {})}
            for value in db.relations]}
        return {"name": db.name, "entry": entry}
    name = getattr(db, "name", "")
    source = _BUILTIN_SOURCES.get(name)
    if source is not None:
        return {"name": name, "entry": {"kind": "builtin",
                                        "source": source}}
    raise UnshardableDatabaseError(
        f"no shippable spec for database {name!r} "
        f"({type(db).__name__}); pass spec= explicitly")


# -- the process pool ---------------------------------------------------------

def _mp_context():
    """The multiprocessing context worker pools start from.

    ``forkserver`` where available (Linux, macOS): children fork from a
    clean single-threaded server process, so pools are safe to start
    from threaded parents (the stress hammers) — the
    classic fork-with-threads deadlock cannot happen — and, with this
    module preloaded into the server, each worker forks already warm.
    ``spawn`` elsewhere.
    """
    try:
        ctx = multiprocessing.get_context("forkserver")
    except ValueError:  # pragma: no cover - platform without forkserver
        return multiprocessing.get_context("spawn")
    try:
        ctx.set_forkserver_preload(["repro.engine.shard"])
    except Exception:  # pragma: no cover - best-effort warm start
        pass
    return ctx


class WorkerPool:
    """A lazily started process pool with an in-process fallback.

    The shared fan-out substrate of the sharded executor, the check
    campaign (``--workers``), and the ingest pipeline: ``workers <= 1``
    means no pool is ever created and :meth:`submit`/:meth:`map` run
    the callable inline — the graceful-degradation contract every
    caller relies on.  Tasks and results must pickle (the shard
    protocol keeps them JSON-safe); submitted callables must be
    importable module-level functions.

    Thread-safe: many threads may submit concurrently (the shard stress
    hammer does).  The underlying :class:`ProcessPoolExecutor` starts on
    first parallel use and is shut down by :meth:`close` (also a
    context manager).
    """

    def __init__(self, workers: int | None = None):
        cpu = os.cpu_count() or 1
        self.workers = max(1, int(workers if workers is not None else cpu))
        self._pool: ProcessPoolExecutor | None = None
        self._lock = threading.Lock()

    @property
    def parallel(self) -> bool:
        """Whether this pool fans out at all (``workers > 1``)."""
        return self.workers > 1

    def _ensure(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers, mp_context=_mp_context())
            return self._pool

    def submit(self, fn, *args) -> Future:
        """Submit one task; inline (already-completed future) when
        ``workers <= 1``."""
        if not self.parallel:
            future: Future = Future()
            try:
                future.set_result(fn(*args))
            except BaseException as exc:  # mirror the pool's contract
                future.set_exception(exc)
            return future
        return self._ensure().submit(fn, *args)

    def map(self, fn, tasks) -> list:
        """Run ``fn`` over ``tasks``, preserving order; sequential and
        in-process when ``workers <= 1`` (or for a single task)."""
        tasks = list(tasks)
        if not self.parallel or len(tasks) <= 1:
            return [fn(task) for task in tasks]
        return list(self._ensure().map(fn, tasks))

    def close(self) -> None:
        """Shut the pool down (idempotent; in-flight work is dropped)."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# -- the worker side ----------------------------------------------------------

#: Per-worker-process state: one warm :class:`EngineCache` shared by
#: every engine this worker builds, plus the engines themselves keyed
#: by ``(name, entry, view, optimize, compiled)``.  Worker processes
#: execute one task at a time, so no locking is needed here.
_WORKER_STATE: dict = {"cache": None, "engines": {}}


def _worker_engine(name: str, entry_json: str, view: str,
                   optimize: bool, compiled: bool):
    """The (cached) worker-side engine over one rebuilt database."""
    from ..serve.catalog import _build_database
    from ..serve.config import _database_spec
    from .cache import EngineCache
    from .executor import Engine

    key = (name, entry_json, view, optimize, compiled)
    engines = _WORKER_STATE["engines"]
    engine = engines.get(key)
    if engine is not None:
        return engine
    if _WORKER_STATE["cache"] is None:
        _WORKER_STATE["cache"] = EngineCache()
    spec = _database_spec(name, json.loads(entry_json))
    hsdb, fcf_db = _build_database(spec)
    db = fcf_db if view == "fcf" else hsdb
    if db is None:
        raise TypeSignatureError(
            f"database {name!r} (kind {spec.kind!r}) has no "
            f"{view!r} view")
    engine = Engine(db, cache=_WORKER_STATE["cache"],
                    optimize=optimize, compiled=compiled)
    engines[key] = engine
    return engine


def _worker_main(task: dict) -> dict:
    """One shard task, answered with a JSON-safe payload.

    Never raises: worker-side failures come back as
    ``{"ok": False, "error": ...}`` so a bad member cannot poison the
    pool for its batch-mates.
    """
    try:
        return _run_task(task)
    except BaseException as exc:  # ship the failure to the join
        return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}


def _run_task(task: dict) -> dict:
    from contextlib import ExitStack

    from ..store.codec import plan_from_json, verdict_to_json
    from ..trace import TraceRecorder, recording

    epoch = time.monotonic()
    recorder = None
    with ExitStack() as stack:
        if task.get("trace"):
            recorder = TraceRecorder()
            stack.enter_context(recording(recorder))
        engine = _worker_engine(task["name"], task["entry"], task["view"],
                                task["optimize"], task["compiled"])
        if engine.fingerprint != task["fingerprint"]:
            raise TypeSignatureError(
                f"worker rebuilt database {task['name']!r} with "
                f"fingerprint {engine.fingerprint[:12]}…, coordinator "
                f"has {task['fingerprint'][:12]}…")
        template = Budget.from_shipped(task["budget"])
        engine.reset_stats()
        verdicts, member_steps, member_calls = [], [], []
        with span("engine.shard_task", members=len(task["plans"])) as sp:
            for text in task["plans"]:
                plan = plan_from_json(json.loads(text))
                member = template.fork()
                try:
                    verdict = engine.eval(plan, budget=member)
                except RepresentationError as exc:
                    # Exception parity with the sequential path: ship
                    # the failure, let the coordinator re-raise.
                    verdicts.append({"error": "representation",
                                     "detail": str(exc)})
                else:
                    verdicts.append(verdict_to_json(verdict))
                member_steps.append(member.steps)
                member_calls.append(member.oracle_calls)
            sp.count("steps", sum(member_steps))
        payload = {"ok": True, "verdicts": verdicts,
                   "member_steps": member_steps,
                   "member_oracle_calls": member_calls,
                   "steps": sum(member_steps),
                   "oracle_calls": sum(member_calls),
                   "stats": engine.stats().to_dict()}
    if recorder is not None:
        payload["spans"] = [s.to_record(epoch)
                            for s in recorder.trace().ordered()]
    return payload


# -- the coordinator ----------------------------------------------------------

class ShardExecutor:
    """The coordinator: partition, ship, and merge batch work.

    Parameters
    ----------
    workers:
        Worker-process count (default: the CPU count).  ``workers <= 1``
        makes :meth:`eval_batch` run in-process — the executor is then
        a zero-cost pass-through.

    One executor serves any number of databases — tasks carry their
    spec, and worker processes cache engines per spec.  Thread-safe,
    like the :class:`WorkerPool` it wraps.  The pool starts lazily on
    first dispatch and is released by :meth:`close` (context manager
    supported); an executor also survives being reused across batches,
    which is what keeps worker caches warm.
    """

    def __init__(self, workers: int | None = None):
        self.pool = WorkerPool(workers)
        self.workers = self.pool.workers

    def close(self) -> None:
        """Release the worker processes (idempotent)."""
        self.pool.close()

    def __enter__(self) -> "ShardExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- dispatch helpers ----------------------------------------------------

    def _task(self, engine, spec: dict, *, budget: Budget,
              trace: bool) -> dict:
        view = "fcf" if not engine.is_hs else "hs"
        return {
            "name": spec["name"],
            "entry": json.dumps(spec["entry"], sort_keys=True),
            "view": view,
            "fingerprint": engine.fingerprint,
            "optimize": engine.optimize,
            "compiled": engine.compiled,
            "budget": budget.ship(),
            "trace": trace,
        }

    @staticmethod
    def _join(future) -> dict:
        payload = future.result()
        if not payload.get("ok"):
            raise ShardTaskError(payload.get("error", "worker failed"))
        return payload

    @staticmethod
    def _absorb_worker(engine, payload: dict) -> None:
        """Fold one worker payload's stats into the coordinator engine."""
        from .stats import EngineStats
        engine._stats.absorb(EngineStats.from_dict(payload["stats"]))

    # -- eval batches --------------------------------------------------------

    def eval_batch(self, engine, plans, *, spec: dict | None = None,
                   budget: Budget | None = None,
                   member_budgets: list | None = None) -> list:
        """:meth:`Engine.eval` many plans across the worker pool.

        Members are partitioned by :func:`shard_index` over their
        canonical plan text; each shard ships one task, evaluates its
        members under worker-side forks of the shipped budget template
        (``budget`` or the engine budget), and the verdicts merge back
        **in request order**.  Members whose plans cannot serialize
        (:class:`~repro.engine.plan.MachineFixpoint`) are evaluated
        in-process while the shards run — the fallback costs only that
        member's parallelism, never the batch's.  When fewer than two
        members can ship, the whole batch evaluates in-process.

        ``member_budgets`` (one coordinator :class:`Budget` per plan)
        receives each member's consumed steps/oracle calls via
        :meth:`~repro.trace.Budget.absorb`, so quota accounting is
        exact across the process boundary.  A member evaluated
        in-process runs under its ``member_budgets`` slot directly, or
        else under a fork of the template, as a worker would run it.

        Raises :class:`UnshardableDatabaseError` when no spec can be
        derived (pass ``spec=``, or evaluate in-process) and
        :class:`ShardTaskError` when a worker fails outright.
        """
        from ..store.codec import (
            UnserializablePlanError,
            canonical_plan_text,
            verdict_from_json,
        )

        plans = list(plans)
        if member_budgets is not None and len(member_budgets) != len(plans):
            raise ValueError("member_budgets must match plans")
        spec = spec if spec is not None else derive_spec(engine.db)
        template = budget if budget is not None else engine.budget

        def run_local(pos: int):
            member = (member_budgets[pos] if member_budgets is not None
                      else template.fork())
            return engine.eval(plans[pos], budget=member)

        texts: list[str | None] = []
        local: list[int] = []
        for pos, plan in enumerate(plans):
            try:
                texts.append(canonical_plan_text(engine.prepare(plan)))
            except UnserializablePlanError:
                texts.append(None)
                local.append(pos)
        shardable = [pos for pos in range(len(plans))
                     if texts[pos] is not None]
        nshards = min(self.workers, len(shardable))
        if nshards <= 1:
            return [run_local(pos) for pos in range(len(plans))]

        shards: dict[int, list[int]] = {}
        for pos in shardable:
            shard = shard_index(engine.fingerprint, texts[pos], nshards)
            shards.setdefault(shard, []).append(pos)

        trace = active_recorder() is not None
        results: list = [None] * len(plans)
        with span("engine.shard_batch", size=len(plans),
                  workers=len(shards), local=len(local)) as sp:
            parent = current_span()
            dispatched = []
            base = time.monotonic()
            for positions in shards.values():
                shard_budget = template.fork()
                task = self._task(engine, spec, budget=shard_budget,
                                  trace=trace)
                task["plans"] = [texts[pos] for pos in positions]
                dispatched.append((positions, shard_budget,
                                   self.pool.submit(_worker_main, task)))
            # Unserializable members evaluate here while workers run.
            for pos in local:
                results[pos] = run_local(pos)
            failed: dict | None = None
            for positions, shard_budget, future in dispatched:
                payload = self._join(future)
                shard_budget.absorb(steps=payload["steps"],
                                    oracle_calls=payload["oracle_calls"])
                self._absorb_worker(engine, payload)
                if trace and payload.get("spans"):
                    replay_records(payload["spans"], parent,
                                   base_start=base)
                sp.count("steps", payload["steps"])
                rows = zip(positions, payload["verdicts"],
                           payload["member_steps"],
                           payload["member_oracle_calls"])
                for pos, verdict, steps, calls in rows:
                    if member_budgets is not None:
                        member_budgets[pos].absorb(steps=steps,
                                                   oracle_calls=calls)
                    if isinstance(verdict, dict) and "error" in verdict:
                        # Exception parity with Engine.eval_batch: a
                        # RepresentationError propagates (after every
                        # shard joins, so accounting stays exact).
                        failed = failed or verdict
                        continue
                    results[pos] = verdict_from_json(verdict)
            if failed is not None:
                raise RepresentationError(failed["detail"])
        return results
