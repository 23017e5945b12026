"""The engine executor: cached, batched, sequential evaluation.

:class:`Engine` wraps one database (an hs-r-db or an fcf-r-db) and
evaluates plan-IR trees against it:

* every ``evaluate`` first *prepares* the plan through the plan cache —
  normalization plus, by default, the algebraic rewrites of
  :mod:`repro.engine.optimize` (``optimize=False`` runs the lowered
  plan as the frontend built it) — then consults the result cache under
  ``(database fingerprint, plan, args)``, so a warm re-evaluation is
  two dictionary probes, however expensive the cold run was;
* cold runs execute, by default, through the compiled-closure backend
  of :mod:`repro.engine.compile` (``compiled=False`` falls back to the
  tree-walking interpreter); both backends produce bit-for-bit equal
  values, share the same result-cache entries, and report the same
  per-node timings — the ``repro.check`` *optimizer* oracle fuzzes the
  three-way agreement;
* sub-plans are cached too: two different queries sharing a subtree
  (the *Complete Approximations* motivation — many related queries, one
  database) pay for the shared work once;
* ``batch_contains`` answers many membership questions in one pass over
  one evaluated plan, in request order;
* all work is metered in :class:`~repro.engine.stats.EngineStats`:
  oracle (``≅_B``) questions, cache traffic, per-node timings, wall
  time, and three-valued verdict counts;
* every evaluation runs under a :class:`~repro.trace.Budget` (steps,
  oracle questions, wall-clock deadline, cooperative cancellation) and
  inside a hierarchical :func:`~repro.trace.span`, so ``--trace``
  output shows where time, steps, and oracle questions went;
* :meth:`Engine.eval` / :meth:`Engine.eval_batch` implement the
  documented divergence contract: a tripped budget never leaks
  :class:`~repro.errors.OutOfFuel` but returns a
  :class:`~repro.engine.verdict.Verdict` with status ``UNKNOWN`` and a
  machine-readable reason (``out_of_fuel`` / ``deadline`` /
  ``cancelled``).

Results are immutable (:class:`~repro.qlhs.interpreter.Value` for path
sets, :class:`~repro.fcf.relation.FcfValue` for fcf plans, ``bool`` for
tests), so cache sharing never aliases mutable state.

Concurrency contract (``docs/concurrency.md``): one :class:`Engine`
may be shared between threads.  The budget governing the evaluation in
flight lives in a :class:`~contextvars.ContextVar` (not instance
state), so two threads evaluating through one engine never cross their
step budgets or deadlines; per-node timing bookkeeping is thread-local;
the caches, stats tables, and :class:`~repro.trace.Budget` charging are
individually thread-safe.  The engine itself never fans out: batch
work runs in parallel only across processes, through
:class:`~repro.engine.shard.ShardExecutor`.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Iterable, Sequence
from contextvars import ContextVar

from ..errors import (
    OutOfFuel,
    RankMismatchError,
    RepresentationError,
    TypeSignatureError,
)
from ..fcf.database import FcfDatabase
from ..fcf.qlf import QLfInterpreter
from ..fcf.relation import FcfValue
from ..qlhs.interpreter import QLhsInterpreter, Value
from ..symmetric.hsdb import HSDatabase
from ..trace import Budget, limits, span
from ..trace.budget import as_budget
from .cache import EngineCache, ResultCache
from .compile import compile_plan
from .fingerprint import fingerprint
from .optimize import common_subplans
from .plan import (
    EXISTS,
    Complement,
    Empty,
    Extend,
    FcfFixpoint,
    FilterAtom,
    FilterEq,
    Fixpoint,
    FullScan,
    Intersect,
    Join,
    MachineFixpoint,
    Plan,
    Project,
    Quantify,
    Scan,
    Union,
)
from .stats import MutableEngineStats, Timer
from .verdict import Verdict

#: The budget governing the evaluation currently in flight, scoped per
#: context (and therefore per thread): two threads evaluating through
#: one shared engine each see their own budget, never each other's —
#: the instance-attribute version of this state was the engine's
#: re-entrancy bug.  ``None`` outside any evaluation.
_ACTIVE_BUDGET: ContextVar[Budget | None] = ContextVar(
    "repro_engine_active_budget", default=None)

#: The batch in flight's common-subplan set (:func:`repro.engine.
#: optimize.common_subplans` over the prepared members), scoped per
#: context like the budget.  The compiled backend refuses to fuse
#: through these nodes, keeping a result-cache boundary at every
#: subtree the batch shares.  Empty outside any batch.
_BATCH_SHARED: ContextVar[frozenset] = ContextVar(
    "repro_engine_batch_shared", default=frozenset())


class Engine:
    """Unified query-evaluation engine over one database.

    Parameters
    ----------
    db:
        An :class:`~repro.symmetric.hsdb.HSDatabase` (executes the full
        algebraic IR plus QLhs/GMhs fixpoints) or an
        :class:`~repro.fcf.database.FcfDatabase` (executes
        :class:`~repro.engine.plan.FcfFixpoint` plans).
    cache:
        An :class:`~repro.engine.cache.EngineCache`; pass a shared
        instance to pool warm results across engines over
        fingerprint-equal databases.  A private cache is created when
        omitted.
    budget:
        The engine's :class:`~repro.trace.Budget` template (or an int
        shorthand for ``Budget(max_steps=...)``).  Every evaluation
        :meth:`forks <repro.trace.Budget.fork>` it, so each call gets
        the full per-evaluation step allowance while sharing the
        deadline and the cancellation flag.  Default:
        :data:`repro.trace.limits.ENGINE` steps, no deadline.
    optimize:
        Run the :mod:`repro.engine.optimize` rewrite rules during plan
        preparation (default on; only applies to hs engines).
        ``optimize=False`` is the escape hatch that executes exactly
        the frontend's lowering.
    compiled:
        Execute cold plans through the :mod:`repro.engine.compile`
        closure backend (default on; only applies to hs engines).
        ``compiled=False`` restores the tree-walking interpreter —
        same values, same cache entries, more per-node overhead.
    """

    def __init__(self, db: HSDatabase | FcfDatabase, *,
                 cache: EngineCache | None = None,
                 budget: Budget | int | None = None,
                 optimize: bool = True,
                 compiled: bool = True):
        if not isinstance(db, (HSDatabase, FcfDatabase)):
            raise TypeSignatureError(
                f"Engine needs an HSDatabase or FcfDatabase, got "
                f"{type(db).__name__}")
        self.db = db
        self.cache = cache if cache is not None else EngineCache()
        self.budget = as_budget(budget, default_steps=limits.ENGINE)
        self.optimize = optimize
        self.compiled = compiled
        self.fingerprint = fingerprint(db)
        self._stats = MutableEngineStats()
        # Exclusive-time bookkeeping for per-node timings, kept
        # per-thread so concurrent evaluations through one shared
        # engine never corrupt each other's stacks.
        self._timing = threading.local()

    # -- properties ---------------------------------------------------------

    @property
    def is_hs(self) -> bool:
        """Whether the engine wraps an hs-r-db (vs. an fcf-r-db)."""
        return isinstance(self.db, HSDatabase)

    @property
    def signature(self) -> tuple[int, ...]:
        """The database's type signature (relation ranks)."""
        if self.is_hs:
            return self.db.signature
        return self.db.type_signature

    # -- the public evaluation surface --------------------------------------

    def prepare(self, plan: Plan) -> Plan:
        """Normalize (and by default optimize) through the plan cache.

        Idempotent, so preparing an already-prepared plan is a warm
        memo hit; the result cache is keyed on *this* form, which is
        what lets differently-written but rewrite-equal plans share
        one entry.
        """
        return self.cache.plans.prepared(
            plan, self.signature,
            optimize=self.optimize and self.is_hs)

    def evaluate(self, plan: Plan, *,
                 budget: Budget | None = None) -> Value | FcfValue:
        """Evaluate a plan to its denoted relation (cached).

        Runs under ``budget`` (default: a fresh
        :meth:`~repro.trace.Budget.fork` of the engine budget).  A
        tripped budget raises :class:`~repro.errors.OutOfFuel` — use
        :meth:`eval` for the three-valued surface that never raises.
        """
        run = budget if budget is not None else self.budget.fork()
        token = _ACTIVE_BUDGET.set(run)
        timer = Timer()
        try:
            with span("engine.evaluate") as sp, timer:
                before = self._oracle_calls()
                try:
                    prepared = self.prepare(plan)
                    result = self._arg(prepared)
                finally:
                    asked = self._oracle_calls() - before
                    self._stats.add(oracle_questions=asked,
                                    evaluations=1)
                    sp.count("oracle_questions", asked)
                    sp.count("steps", run.steps)
            return result
        finally:
            _ACTIVE_BUDGET.reset(token)
            self._stats.add(wall_time=timer.seconds)

    def holds(self, plan: Plan) -> bool:
        """Truth of a rank-0 plan (nonemptiness in general)."""
        return self._truth(self.evaluate(plan))

    def eval(self, plan: Plan, *,
             budget: Budget | int | None = None) -> Verdict:
        """Evaluate under the three-valued divergence contract.

        Unlike :meth:`evaluate`, a tripped :class:`~repro.trace.Budget`
        never escapes: the answer is always a
        :class:`~repro.engine.verdict.Verdict` —

        * ``TRUE`` / ``FALSE`` with :attr:`~repro.engine.verdict.
          Verdict.value` holding the evaluated relation (truth is
          nonemptiness, i.e. :meth:`holds`), or
        * ``UNKNOWN`` with the machine-readable reason
          (``out_of_fuel`` / ``deadline`` / ``cancelled``) and the step
          count reached.

        ``budget`` overrides the per-evaluation budget (an int is
        shorthand for ``Budget(max_steps=...)``); by default the engine
        budget is forked, so every ``eval`` gets the full step
        allowance while sharing the deadline and cancellation flag.
        """
        if budget is None:
            run = self.budget.fork()
        else:
            run = as_budget(budget)
        with span("engine.eval") as sp:
            try:
                value = self.evaluate(plan, budget=run)
            except OutOfFuel as exc:
                verdict = Verdict.unknown(
                    exc.reason,
                    steps=exc.steps if exc.steps is not None
                    else run.steps)
                self._stats.record_verdict(verdict.status, verdict.reason)
                sp.set(verdict=verdict.status, reason=verdict.reason)
                return verdict
            verdict = Verdict.of(self._truth(value), value=value)
            self._stats.record_verdict(verdict.status)
            sp.set(verdict=verdict.status)
            return verdict

    def cached_verdict(self, plan: Plan) -> Verdict | None:
        """The verdict :meth:`eval` would return, from the caches alone,
        or ``None``.

        Probes the prepared-plan memo without waiting
        (:meth:`PlanCache.peek_prepared
        <repro.engine.cache.PlanCache.peek_prepared>`), then the result
        cache (:meth:`ResultCache.peek
        <repro.engine.cache.ResultCache.peek>`).  It never prepares,
        never executes and never waits on a lock held across a
        computation, so an event loop may call it.  The result cache
        holds only completed values, and a completed value is the
        answer under any budget, so a hit needs no budget; it is
        counted as :meth:`eval` counts a warm hit (one evaluation, its
        wall time, one verdict).  A miss counts nothing: the caller
        falls back to :meth:`eval`.
        """
        start = time.perf_counter()
        prepared = self.cache.plans.peek_prepared(
            plan, self.signature, optimize=self.optimize and self.is_hs)
        if prepared is None:
            return None
        missing = object()
        value = self.cache.results.peek(
            ResultCache.key(self.fingerprint, prepared, ()), missing)
        if value is missing:
            return None
        verdict = Verdict.of(self._truth(value), value=value)
        self._stats.add(evaluations=1,
                        wall_time=time.perf_counter() - start)
        self._stats.record_verdict(verdict.status)
        return verdict

    def eval_batch(self, plans: Sequence[Plan]) -> list[Verdict]:
        """:meth:`eval` several plans; one diverging member cannot
        starve the rest.

        Each member runs under its own :meth:`~repro.trace.Budget.fork`
        of the engine budget (fresh step counter, shared deadline and
        cancellation flag), so a member that trips its step budget
        yields ``UNKNOWN`` while the others still complete.  The
        members' common subplans are pinned as compiled-path
        boundaries, so work the batch shares is computed once.  To run
        a batch on several cores, use
        :meth:`ShardExecutor.eval_batch
        <repro.engine.shard.ShardExecutor.eval_batch>`
        (``docs/sharding.md``).
        """
        plans = list(plans)
        with span("engine.eval_batch", size=len(plans)):
            prepared = [self.prepare(p) for p in plans]
            token = _BATCH_SHARED.set(common_subplans(prepared))
            try:
                return [self.eval(p) for p in prepared]
            finally:
                _BATCH_SHARED.reset(token)

    def cancel(self) -> None:
        """Cooperatively cancel evaluations governed by this engine.

        Sets the engine budget's shared cancellation flag: every
        in-flight (and future) forked budget trips on its next charge
        with reason ``cancelled``, which :meth:`eval` reports as an
        ``UNKNOWN`` verdict.  Construct a fresh engine (or a fresh
        :class:`~repro.trace.Budget`) to evaluate again.
        """
        self.budget.cancel()

    def contains(self, plan: Plan, u: Sequence) -> bool:
        """One membership test: is ``u`` in the plan's relation?"""
        return self.batch_contains(plan, [tuple(u)])[0]

    def batch_contains(self, plan: Plan, tuples: Iterable[Sequence], *,
                       budget: Budget | None = None) -> list[bool]:
        """Answer many membership questions against one plan, in order.

        The plan is evaluated once (warm: a cache probe); each tuple
        then gets an independent test — canonicalize, probe the
        result.  Per-tuple answers are result-cached under
        ``(fingerprint, plan, ("contains", u))``.

        The whole batch runs under one :meth:`~repro.trace.Budget.fork`
        of the engine budget, checked before every membership test — a
        :meth:`cancel` from another thread or an expired deadline
        interrupts the batch mid-flight with
        :class:`~repro.errors.OutOfFuel` (reason ``cancelled`` /
        ``deadline``), mirroring :meth:`evaluate`'s raising contract.
        ``budget`` substitutes an explicit batch budget for that fork
        (used directly, not forked — the sharded executor's workers
        govern their slice of a shipped batch with it).
        """
        requests = [tuple(u) for u in tuples]
        run = budget if budget is not None else self.budget.fork()
        token = _ACTIVE_BUDGET.set(run)
        try:
            return self._batch_contains(plan, requests, run)
        finally:
            _ACTIVE_BUDGET.reset(token)

    def _batch_contains(self, plan: Plan, requests: list[tuple],
                        run: Budget) -> list[bool]:
        """The :meth:`batch_contains` body (active budget installed)."""
        with span("engine.batch_contains",
                  requests=len(requests)) as sp, Timer() as t:
            before = self._oracle_calls()
            prepared = self.prepare(plan)
            value = self._arg(prepared)

            answers: list[bool] = []
            results_cache = self.cache.results
            missing = object()
            for u in requests:
                key = ResultCache.key(self.fingerprint, prepared,
                                      ("contains", u))
                answer = results_cache.get(key, missing)
                if answer is missing:
                    run.check()
                    answer = self._member(value, u)
                    results_cache.put(key, answer)
                answers.append(answer)

            asked = self._oracle_calls() - before
            self._stats.add(oracle_questions=asked,
                            batch_requests=len(requests))
            sp.count("oracle_questions", asked)
        self._stats.add(wall_time=t.seconds)
        return answers

    # -- stats --------------------------------------------------------------

    def stats(self):
        """An immutable :class:`~repro.engine.stats.EngineStats` snapshot.

        Thread-safe; note that ``oracle_questions`` is attributed per
        evaluation by before/after deltas on the database's shared
        oracle counter, so when several threads evaluate through one
        engine concurrently the per-engine total can double-count
        overlapping windows — the database-level
        ``db.equiv.calls`` counter itself stays exact
        (``docs/concurrency.md``).
        """
        optimizations, rewrites = self.cache.plans.optimizer_stats()
        return self._stats.snapshot(self.cache.plans.stats(),
                                    self.cache.results.stats(),
                                    optimizations=optimizations,
                                    rewrites=rewrites)

    def reset_stats(self) -> None:
        """Zero the engine's live counters (caches keep their contents)."""
        self._stats.reset()

    # -- internals ----------------------------------------------------------

    def _oracle_calls(self) -> int:
        """Cumulative ``≅_B`` oracle questions the database has answered."""
        return self.db.equiv.calls if self.is_hs else 0

    def _node_budget(self, max_steps: int | None = None) -> Budget:
        """The budget a fixpoint node runs under.

        The evaluation's active budget (a :class:`~contextvars.
        ContextVar`, so per-thread on a shared engine) governs
        directly; a plan-level ``max_steps`` knob (:class:`~repro.
        engine.plan.MachineFixpoint`) forks it so the node-local step
        cap applies while the deadline and cancellation flag stay
        shared.
        """
        base = _ACTIVE_BUDGET.get()
        if base is None:  # direct _execute_node use (tests, debugging)
            base = self.budget.fork()
        if max_steps is not None:
            return base.fork(max_steps=max_steps)
        return base

    @staticmethod
    def _truth(value: Value | FcfValue) -> bool:
        """Truth of an evaluated relation: nonemptiness (rank-0 fcf
        values test ``()``-membership, honouring co-finiteness)."""
        if isinstance(value, FcfValue):
            return value.contains(()) if value.rank == 0 else bool(
                value.tuples or value.cofinite)
        return not value.is_empty

    def _child_time(self) -> list[float]:
        """This thread's exclusive-time stack (lazily created).

        Per-thread because two threads evaluating through one shared
        engine would otherwise pop each other's frames and corrupt the
        per-node timings.
        """
        stack = getattr(self._timing, "stack", None)
        if stack is None:
            stack = []
            self._timing.stack = stack
        return stack

    def _execute(self, plan: Plan) -> Value | FcfValue:
        """Execute one node (children through the cache), timed."""
        child_time = self._child_time()
        start = time.perf_counter()
        child_time.append(0.0)
        try:
            value = self._execute_node(plan)
        finally:
            child_seconds = child_time.pop()
            total = time.perf_counter() - start
            if child_time:
                child_time[-1] += total
            self._stats.record_node(type(plan).__name__,
                                    max(total - child_seconds, 0.0))
        return value

    def _arg(self, plan: Plan) -> Value:
        """A (sub-)plan's value, via the result cache (level 2).

        Used for the root and every child alike (interpreted path) and
        for the root of a compiled run, so any two queries sharing a
        prepared subtree share its computed value — the compiled
        backend probes the same keys at its interior boundaries.
        """
        key = ResultCache.key(self.fingerprint, plan, ())
        missing = object()
        hit = self.cache.results.get(key, missing)
        if hit is not missing:
            return hit
        if self.compiled and self.is_hs:
            # Compiled per run, not kept: once the run completes, the
            # result cache answers the plan before it would be needed.
            compiled = compile_plan(self, plan, _BATCH_SHARED.get())
            self._stats.add(compiles=1)
            value = compiled.run()
        else:
            value = self._execute(plan)
        self.cache.results.put(key, value)
        return value

    def _execute_node(self, plan: Plan) -> Value | FcfValue:
        """Semantics of one plan node (dispatch on the node kind)."""
        if isinstance(plan, FcfFixpoint):
            if self.is_hs:
                raise TypeSignatureError(
                    "FcfFixpoint plans need an Engine over an "
                    "FcfDatabase")
            interp = QLfInterpreter(self.db, budget=self._node_budget())
            return interp.result(plan.program)
        if not self.is_hs:
            raise TypeSignatureError(
                f"an Engine over an FcfDatabase executes only "
                f"FcfFixpoint plans, not {type(plan).__name__}")

        hsdb: HSDatabase = self.db
        if isinstance(plan, Scan):
            if not 0 <= plan.index < hsdb.k:
                raise TypeSignatureError(
                    f"Scan({plan.index}) out of range for type "
                    f"{hsdb.signature}")
            return Value(hsdb.signature[plan.index],
                         hsdb.representatives[plan.index])
        if isinstance(plan, FullScan):
            return Value(plan.rank, frozenset(hsdb.tree.level(plan.rank)))
        if isinstance(plan, Empty):
            return Value(plan.rank, frozenset())
        if isinstance(plan, FilterEq):
            body = self._arg(plan.child)
            i = plan.i if plan.i >= 0 else body.rank + plan.i
            j = plan.j if plan.j >= 0 else body.rank + plan.j
            if not (0 <= i < body.rank and 0 <= j < body.rank):
                raise RankMismatchError(
                    f"FilterEq({plan.i}, {plan.j}) out of range for "
                    f"rank {body.rank}")
            return Value(body.rank, frozenset(
                p for p in body.paths if p[i] == p[j]))
        if isinstance(plan, FilterAtom):
            body = self._arg(plan.child)
            if any(not 0 <= c < body.rank for c in plan.positions):
                raise RankMismatchError(
                    f"FilterAtom positions {plan.positions} out of "
                    f"range for rank {body.rank}")
            out = frozenset(
                p for p in body.paths
                if hsdb.contains(
                    plan.index,
                    tuple(p[c] for c in plan.positions)) != plan.negate)
            return Value(body.rank, out)
        if isinstance(plan, Project):
            body = self._arg(plan.child)
            if any(not 0 <= c < body.rank for c in plan.coords):
                raise RankMismatchError(
                    f"Project coords {plan.coords} out of range for "
                    f"rank {body.rank}")
            out = frozenset(
                hsdb.canonical_representative(
                    tuple(p[c] for c in plan.coords))
                for p in body.paths)
            return Value(len(plan.coords), out)
        if isinstance(plan, Extend):
            body = self._arg(plan.child)
            out = frozenset(
                p + (a,) for p in body.paths
                for a in hsdb.tree.children(p))
            return Value(body.rank + 1, out)
        if isinstance(plan, Join):
            left = self._arg(plan.left)
            right = self._arg(plan.right)
            m, n = left.rank, right.rank
            out = set()
            for r in hsdb.tree.level(m + n):
                head = hsdb.canonical_representative(r[:m]) if m else ()
                tail = hsdb.canonical_representative(r[m:]) if n else ()
                if head in left.paths and tail in right.paths:
                    out.add(r)
            return Value(m + n, frozenset(out))
        if isinstance(plan, Quantify):
            body = self._arg(plan.child)
            if body.rank == 0:
                raise RankMismatchError("Quantify needs rank >= 1")
            rank = body.rank - 1
            if plan.kind == EXISTS:
                # Paths of T^{n+1} are p+(a,) for p ∈ Tⁿ: dropping the
                # last label is exactly relativized ∃ (Theorem 6.3).
                return Value(rank, frozenset(
                    p[:-1] for p in body.paths))
            out = frozenset(
                p for p in hsdb.tree.level(rank)
                if all(p + (a,) in body.paths
                       for a in hsdb.tree.children(p)))
            return Value(rank, out)
        if isinstance(plan, Union):
            parts = [self._arg(c) for c in plan.children]
            rank = self._common_rank(parts, "Union")
            out = frozenset().union(*(v.paths for v in parts))
            return Value(rank, out)
        if isinstance(plan, Intersect):
            parts = [self._arg(c) for c in plan.children]
            rank = self._common_rank(parts, "Intersect")
            paths = set(parts[0].paths)
            for v in parts[1:]:
                paths &= v.paths
            return Value(rank, frozenset(paths))
        if isinstance(plan, Complement):
            body = self._arg(plan.child)
            level = frozenset(hsdb.tree.level(body.rank))
            return Value(body.rank, level - body.paths)
        if isinstance(plan, Fixpoint):
            interp = QLhsInterpreter(hsdb, budget=self._node_budget())
            return interp.run(plan.program, result_var=plan.result_var)
        if isinstance(plan, MachineFixpoint):
            from ..machines.gmhs_pipeline import run_query_gmhs
            value, __ = run_query_gmhs(
                hsdb, plan.procedure,
                search_window=plan.search_window,
                budget=self._node_budget(max_steps=plan.max_steps))
            return value
        raise TypeError(f"unknown plan node {plan!r}")

    @staticmethod
    def _common_rank(parts: Sequence[Value], what: str) -> int:
        """The single rank shared by ``parts`` (raise on a mix)."""
        if not parts:
            raise RankMismatchError(f"{what} needs at least one child")
        ranks = {v.rank for v in parts}
        if len(ranks) != 1:
            raise RankMismatchError(
                f"{what} over mixed ranks {sorted(ranks)}")
        return ranks.pop()

    def _member(self, value: Value | FcfValue, u: tuple) -> bool:
        """One membership test against an evaluated plan."""
        if isinstance(value, FcfValue):
            return value.contains(u)
        if len(u) != value.rank:
            return False
        hsdb: HSDatabase = self.db
        try:
            return hsdb.canonical_representative(u) in value.paths
        except RepresentationError:
            # Not covered by the tree (foreign elements): not a member.
            return False

    def __repr__(self) -> str:
        """Short description with fingerprint prefix and cache size."""
        name = getattr(self.db, "name", "?")
        return (f"Engine({name}, fingerprint={self.fingerprint[:12]}…, "
                f"results={len(self.cache.results)})")
