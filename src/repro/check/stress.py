"""The race-stress oracle ("hammer"): seeded multi-threaded campaigns.

Where :mod:`repro.check.runner` fuzzes the *semantics* of the four
frontends, this module fuzzes the *concurrency contract*
(``docs/concurrency.md``): every hammer pounds one shared object — a
:class:`~repro.engine.cache.ResultCache`, a memoized function, a
:class:`~repro.trace.Budget`, a :class:`~repro.trace.TraceRecorder`, a
whole :class:`~repro.engine.Engine` behind a shared
:class:`~repro.engine.EngineCache` — from many threads released
through one barrier, then asserts the invariants that distinguish a
thread-safe implementation from a merely lucky one:

* **zero exceptions** escape any worker (the pre-fix cache raised
  ``KeyError`` from its get-TOCTOU window under exactly this load);
* answers are **bit-for-bit equal** to a sequential reference run;
* **exact accounting** — a shared budget's final step counter equals
  the sum of successful charges and never exceeds ``max_steps``;
* **self-consistent counters** — ``hits + misses == counted lookups``,
  ``size <= maxsize`` at quiescence, recorder ``len + dropped`` equals
  the number of spans recorded.

Every hammer is deterministic in its inputs given ``(seed, threads,
ops)`` — the thread interleavings of course are not, which is why the
campaign driver (:func:`run_stress`) can loop fresh-seeded rounds for
a wall-clock budget (the CI stress job runs 60 s worth on a fresh seed
per push).  Exposed on the CLI as ``python -m repro check --stress``.
"""

from __future__ import annotations

import random
import sys
import threading
import time

from ..engine import Engine, EngineCache, ResultCache, Scan, plan_from_sentence
from ..errors import OutOfFuel
from ..logic import parse
from ..symmetric import rado_hsdb
from ..trace import Budget, TraceRecorder, recording, span
from ..util.memo import MISS, lru_cached

#: Default thread count / per-thread operation count of one campaign —
#: ≥8 × ≥10k is the acceptance floor of the race-stress harness.
DEFAULT_THREADS = 8
DEFAULT_OPS = 10_000

#: The sentence workload the engine hammer evaluates (a subset of the
#: E15 Rado workload: cheap enough to repeat thousands of times warm,
#: varied enough to exercise both verdict polarities).
SENTENCES = (
    "forall x. exists y. R1(x, y)",
    "exists x. R1(x, x)",
    "forall x. forall y. R1(x, y)",
    "exists x. exists y. (R1(x, y) and x != y)",
)


#: The GIL switch interval installed while a hammer runs.  CPython's
#: default (5 ms) lets a tight loop run thousands of bytecodes between
#: preemptions, hiding narrow race windows; forcing frequent switches
#: makes the pre-fix TOCTOU/lost-update bugs reproduce in a few
#: thousand operations instead of a few million.  Saved and restored
#: around every hammer.
SWITCH_INTERVAL = 1e-5


def _run_threads(threads: int, work) -> list[BaseException]:
    """Run ``work(i)`` on ``threads`` OS threads released together.

    A :class:`threading.Barrier` lines every worker up before the
    first operation — maximal contention on the shared object under
    test — and every escaped exception is collected (never swallowed):
    the caller turns a non-empty list into hammer failures.  The GIL
    switch interval is tightened to :data:`SWITCH_INTERVAL` for the
    duration (and restored after), so narrow race windows get hit.
    """
    barrier = threading.Barrier(threads)
    errors: list[BaseException] = []
    errors_lock = threading.Lock()

    def runner(i: int) -> None:
        try:
            barrier.wait()
            work(i)
        except BaseException as exc:  # noqa: BLE001 — report, don't die
            with errors_lock:
                errors.append(exc)

    pool = [threading.Thread(target=runner, args=(i,), daemon=True)
            for i in range(threads)]
    previous_interval = sys.getswitchinterval()
    sys.setswitchinterval(SWITCH_INTERVAL)
    try:
        for t in pool:
            t.start()
        for t in pool:
            t.join()
    finally:
        sys.setswitchinterval(previous_interval)
    return errors


def _hammer_report(name: str, threads: int, ops: int,
                   failures: list[str], **details) -> dict:
    """The JSON-ready record of one hammer run."""
    return {"hammer": name, "threads": threads, "ops": ops,
            "failures": failures, **details}


def hammer_budget(seed: int, threads: int = DEFAULT_THREADS,
                  ops: int = DEFAULT_OPS) -> dict:
    """Pound one shared :class:`~repro.trace.Budget` from many threads.

    ``max_steps`` is set below the aggregate demand, so every thread
    must eventually trip.  Invariants: the final step counter equals
    ``max_steps`` exactly *and* equals the sum of successful charges
    (no lost updates, no overshoot), and every thread observed
    :class:`~repro.errors.OutOfFuel` at the documented limit.
    """
    limit = (threads * ops) // 2
    budget = Budget(max_steps=limit)
    successes = [0] * threads
    trips = [0] * threads

    def work(i: int) -> None:
        for __ in range(ops):
            try:
                budget.charge()
                successes[i] += 1
            except OutOfFuel:
                trips[i] += 1

    errors = _run_threads(threads, work)
    failures = [f"worker raised {type(e).__name__}: {e}" for e in errors]
    if budget.steps != limit:
        failures.append(
            f"budget.steps == {budget.steps}, expected exactly {limit}")
    if sum(successes) != budget.steps:
        failures.append(
            f"sum of successful charges {sum(successes)} != "
            f"budget.steps {budget.steps} (lost updates)")
    if sum(successes) + sum(trips) != threads * ops:
        failures.append(
            f"successes {sum(successes)} + trips {sum(trips)} != "
            f"{threads * ops} attempted charges")
    if sum(trips) != threads * ops - limit:
        failures.append(
            f"{sum(trips)} OutOfFuel trips, expected exactly "
            f"{threads * ops - limit} (limit not enforced exactly)")
    return _hammer_report("budget", threads, ops, failures,
                          max_steps=limit, steps=budget.steps,
                          trips=sum(trips))


def hammer_memo(seed: int, threads: int = DEFAULT_THREADS,
                ops: int = DEFAULT_OPS) -> dict:
    """Pound one :func:`~repro.util.memo.lru_cached` memo from many
    threads with an overlapping, eviction-churning key space, mixing
    non-blocking ``peek`` probes into the calls.

    Invariants: every call and every peek hit returns the pure
    function's value, a peek never computes, and the counted traffic
    is exact (``hits + misses == calls + peek hits``).
    """
    peeking = threading.local()
    peek_computed = [0] * threads

    @lru_cached(maxsize=64)
    def cube(n: int) -> int:
        if getattr(peeking, "index", None) is not None:
            peek_computed[peeking.index] += 1
        return n * n * n

    keyspace = 256  # 4x maxsize: constant eviction churn
    bad = [0] * threads
    calls = [0] * threads
    peek_hits = [0] * threads

    def work(i: int) -> None:
        rng = random.Random((seed << 8) + i)
        for __ in range(ops):
            n = rng.randrange(keyspace)
            if rng.random() < 0.25:
                peeking.index = i
                try:
                    got = cube.peek(n)
                finally:
                    peeking.index = None
                if got is MISS:
                    continue
                peek_hits[i] += 1
            else:
                got = cube(n)
                calls[i] += 1
            if got != n * n * n:
                bad[i] += 1

    errors = _run_threads(threads, work)
    failures = [f"worker raised {type(e).__name__}: {e}" for e in errors]
    if sum(bad):
        failures.append(f"{sum(bad)} memoized calls or peeks returned "
                        "wrong values")
    if sum(peek_computed):
        failures.append(f"{sum(peek_computed)} peeks computed the "
                        "function")
    traffic = cube.hits + cube.misses
    expected = sum(calls) + sum(peek_hits)
    if traffic != expected:
        failures.append(f"hits+misses == {traffic}, expected {expected} "
                        "calls + peek hits (lost counter updates)")
    if len(cube.cache) > 64:
        failures.append(f"memo grew to {len(cube.cache)} > maxsize 64")
    return _hammer_report("memo", threads, ops, failures,
                          hits=cube.hits, misses=cube.misses,
                          evictions=cube.evictions,
                          peek_hits=sum(peek_hits))


def hammer_cache(seed: int, threads: int = DEFAULT_THREADS,
                 ops: int = DEFAULT_OPS) -> dict:
    """Pound one shared :class:`~repro.engine.cache.ResultCache` with a
    mixed get/put/contains workload over an overlapping key space
    sized to force continuous eviction.

    Invariants: zero exceptions (the pre-fix TOCTOU ``get`` raised
    ``KeyError`` here), ``hits + misses`` equals the counted lookups
    exactly, the quiescent size respects ``maxsize``, and the stats
    snapshot agrees with the live counters.
    """
    cache = ResultCache(maxsize=256)
    keyspace = [ResultCache.key("fp", Scan(0), ("k", j))
                for j in range(1024)]
    lookups = [0] * threads

    def work(i: int) -> None:
        rng = random.Random((seed << 8) + i)
        for __ in range(ops):
            key = keyspace[rng.randrange(len(keyspace))]
            roll = rng.random()
            if roll < 0.55:
                cache.get(key)
                lookups[i] += 1
            elif roll < 0.90:
                cache.put(key, ("value", key))
            elif roll < 0.95:
                key in cache  # noqa: B015 — uncounted containment probe
            else:
                len(cache), cache.stats()

    errors = _run_threads(threads, work)
    failures = [f"worker raised {type(e).__name__}: {e}" for e in errors]
    stats = cache.stats()
    if stats.hits + stats.misses != sum(lookups):
        failures.append(
            f"hits+misses == {stats.hits + stats.misses}, expected "
            f"{sum(lookups)} counted lookups")
    if len(cache) > cache.maxsize:
        failures.append(f"size {len(cache)} exceeds maxsize "
                        f"{cache.maxsize} at quiescence")
    if stats.size != len(cache):
        failures.append(f"stats().size {stats.size} != len {len(cache)}")
    return _hammer_report("cache", threads, ops, failures,
                          hits=stats.hits, misses=stats.misses,
                          evictions=stats.evictions, size=stats.size)


def hammer_trace(seed: int, threads: int = DEFAULT_THREADS,
                 ops: int = DEFAULT_OPS) -> dict:
    """Pound one :class:`~repro.trace.TraceRecorder` ring buffer from
    many threads opening nested spans.

    Invariants: zero exceptions and exact ring accounting —
    ``len(buffer) + dropped`` equals the number of spans recorded.
    """
    capacity = max(16, ops // 4)
    recorder = TraceRecorder(capacity=capacity)
    per_thread = max(1, ops // 10)  # span open/close is pricier than a probe

    def work(i: int) -> None:
        for n in range(per_thread):
            with span("stress.outer", worker=i):
                with span("stress.inner") as sp:
                    sp.count("n", n)

    with recording(recorder):
        errors = _run_threads(threads, work)
    failures = [f"worker raised {type(e).__name__}: {e}" for e in errors]
    total = threads * per_thread * 2  # outer + inner per iteration
    snapshot = recorder.trace()
    accounted = len(snapshot.spans) + snapshot.dropped
    if accounted != total:
        failures.append(f"spans kept+dropped == {accounted}, expected "
                        f"{total} (lost records)")
    return _hammer_report("trace", threads, ops, failures,
                          recorded=total, kept=len(snapshot.spans),
                          dropped=snapshot.dropped)


def hammer_engine(seed: int, threads: int = DEFAULT_THREADS,
                  ops: int = DEFAULT_OPS) -> dict:
    """Pound a shared :class:`~repro.engine.EngineCache` — and one
    shared :class:`~repro.engine.Engine` — from many threads.

    Half the workers share a single engine (exercising the re-entrant
    per-context budget path); the other half each construct their own
    engine over an independently built, fingerprint-equal Rado copy
    backed by the same cache (the serving-tier shape).  Every worker
    interleaves warm sentence evaluations with ``batch_contains`` and
    compares each answer bit for bit against a sequential reference
    computed up front on a private engine.
    """
    reference_engine = Engine(rado_hsdb())
    plans = [plan_from_sentence(parse(s), reference_engine.signature)
             for s in SENTENCES]
    expected = [reference_engine.holds(p) for p in plans]
    pool_elems = reference_engine.db.domain.first(8)
    tuples = [(x, y) for x in pool_elems for y in pool_elems]
    expected_members = reference_engine.batch_contains(Scan(0), tuples)

    shared_cache = EngineCache()
    shared_engine = Engine(rado_hsdb(), cache=shared_cache)
    rounds = max(1, ops // (len(plans) + 1))
    mismatches = [0] * threads

    def work(i: int) -> None:
        engine = (shared_engine if i % 2 == 0
                  else Engine(rado_hsdb(), cache=shared_cache))
        rng = random.Random((seed << 8) + i)
        for r in range(rounds):
            idx = rng.randrange(len(plans))
            if engine.holds(plans[idx]) != expected[idx]:
                mismatches[i] += 1
            if r % 16 == 0:
                answers = engine.batch_contains(Scan(0), tuples)
                if answers != expected_members:
                    mismatches[i] += 1

    errors = _run_threads(threads, work)
    failures = [f"worker raised {type(e).__name__}: {e}" for e in errors]
    if sum(mismatches):
        failures.append(f"{sum(mismatches)} answers diverged from the "
                        "sequential reference")
    stats = shared_cache.results.stats()
    if stats.size != len(shared_cache.results):
        failures.append("shared cache stats().size disagrees with len")
    return _hammer_report("engine", threads, ops, failures,
                          rounds=rounds,
                          cache_hits=stats.hits,
                          cache_misses=stats.misses,
                          cache_size=stats.size)


def hammer_shard(seed: int, threads: int = DEFAULT_THREADS,
                 ops: int = DEFAULT_OPS) -> dict:
    """Pound one shared :class:`~repro.engine.shard.ShardExecutor` — a
    live process pool — from many threads submitting seeded
    :meth:`~repro.engine.shard.ShardExecutor.eval_batch` batches.

    Maximal contention on one pool: every thread owns a private engine
    over a fingerprint-equal Rado copy but all of them dispatch through
    the *same* executor (and so the same worker processes).
    Invariants: zero escaped exceptions, every sharded verdict agrees
    bit for bit with a sequential reference computed up front, and
    exact budget accounting across the joins — each thread
    :meth:`~repro.trace.Budget.absorb`-s its observed member counters
    into one shared parent budget, whose final counters must equal the
    per-thread sums exactly (a lost update under contention shows up
    as a mismatch).
    """
    from ..engine.shard import ShardExecutor

    reference_engine = Engine(rado_hsdb())
    plans = [plan_from_sentence(parse(s), reference_engine.signature)
             for s in SENTENCES]
    expected = [v.status for v in reference_engine.eval_batch(plans)]

    executor = ShardExecutor(2)
    # Spin the worker processes up before the barrier drops: pool
    # start-up latency is not the contract under test (a lone plan
    # would evaluate in-process and start nothing).
    executor.eval_batch(Engine(rado_hsdb()), plans[:2])

    rounds = max(1, min(12, ops // 1000))  # a dispatch is ~ms, not ~µs
    mismatches = [0] * threads
    absorbed = [0] * threads
    parent = Budget(max_steps=None)

    def work(i: int) -> None:
        engine = Engine(rado_hsdb())
        for __ in range(rounds):
            members = [Budget(max_steps=10_000_000) for _ in plans]
            verdicts = executor.eval_batch(engine, plans,
                                           member_budgets=members)
            if [v.status for v in verdicts] != expected:
                mismatches[i] += 1
            for member in members:
                parent.absorb(steps=member.steps)
                absorbed[i] += member.steps

    try:
        errors = _run_threads(threads, work)
    finally:
        executor.close()
    failures = [f"worker raised {type(e).__name__}: {e}" for e in errors]
    if sum(mismatches):
        failures.append(f"{sum(mismatches)} sharded batches diverged "
                        "from the sequential reference")
    if parent.steps != sum(absorbed):
        failures.append(
            f"parent budget absorbed {parent.steps} steps, threads "
            f"observed {sum(absorbed)} (lost updates across the join)")
    return _hammer_report("shard", threads, ops, failures,
                          rounds=rounds, workers=executor.workers,
                          absorbed_steps=parent.steps)


#: The registered hammers, in campaign order (cheap invariants first).
HAMMERS = {
    "budget": hammer_budget,
    "memo": hammer_memo,
    "cache": hammer_cache,
    "trace": hammer_trace,
    "engine": hammer_engine,
    "shard": hammer_shard,
}


def run_stress(seed: int = 0, *, threads: int = DEFAULT_THREADS,
               ops: int = DEFAULT_OPS, budget_s: float | None = None,
               out: str | None = None,
               hammers: tuple[str, ...] | None = None,
               verbose: bool = False) -> dict:
    """Run the race-stress campaign: every hammer, at least once.

    With ``budget_s`` the campaign loops whole rounds (fresh derived
    seed each round) until the wall-clock budget is spent — the CI
    stress job runs ``--budget-s 60`` on a fresh seed per push.
    ``hammers`` restricts a round to a named subset (the CLI's
    ``--hammers=a,b``; the CI shard-bench job runs just the process-pool
    hammer this way).  Returns the JSON-ready report; also writes it to
    ``out`` when given.  The report's ``failures`` list is empty
    exactly when every invariant held in every round.
    """
    import json

    selected = dict(HAMMERS)
    if hammers is not None:
        unknown = [name for name in hammers if name not in HAMMERS]
        if unknown:
            raise ValueError(f"unknown hammers {unknown}; choose from "
                             f"{sorted(HAMMERS)}")
        selected = {name: fn for name, fn in HAMMERS.items()
                    if name in hammers}

    started = time.monotonic()
    deadline = None if budget_s is None else started + budget_s
    rounds = 0
    failures: list[dict] = []
    hammer_runs: dict[str, int] = {name: 0 for name in selected}

    with span("check.stress", seed=seed, threads=threads,
              ops=ops) as run_span:
        while True:
            round_seed = seed + rounds
            for name, hammer in selected.items():
                with span("check.hammer", hammer=name,
                          seed=round_seed) as sp:
                    result = hammer(round_seed, threads, ops)
                    sp.set(status="fail" if result["failures"] else "ok")
                hammer_runs[name] += 1
                for detail in result["failures"]:
                    failures.append({"hammer": name, "seed": round_seed,
                                     "detail": detail})
                if verbose:
                    status = ("FAIL" if result["failures"] else "ok")
                    print(f"  [{name}] seed={round_seed} {status}")
            rounds += 1
            if deadline is None or time.monotonic() > deadline:
                break
        run_span.set(rounds=rounds, failures=len(failures))

    report = {
        "mode": "stress",
        "seed": seed,
        "threads": threads,
        "ops": ops,
        "rounds": rounds,
        "hammers": hammer_runs,
        "elapsed_s": round(time.monotonic() - started, 3),
        "failures": failures,
    }
    if out is not None:
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
    return report


def format_stress_report(report: dict) -> str:
    """Human-readable campaign summary for the CLI."""
    lines = [f"check --stress: seed={report['seed']} "
             f"threads={report['threads']} ops={report['ops']} "
             f"rounds={report['rounds']} "
             f"elapsed={report['elapsed_s']}s"]
    lines.append("  hammers: " + ", ".join(
        f"{name}x{n}" for name, n in report["hammers"].items()))
    if report["failures"]:
        lines.append(f"  FAILURES: {len(report['failures'])}")
        for entry in report["failures"]:
            lines.append(f"    [{entry['hammer']} seed={entry['seed']}] "
                         f"{entry['detail']}")
    else:
        lines.append("  no failures — concurrency invariants held")
    return "\n".join(lines)
