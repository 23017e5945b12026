"""Concurrency suite: the thread-safety contract of ``docs/concurrency.md``.

Each fast test here pins one of the concurrency fixes (atomic budgets,
the lock-striped result cache, context-scoped active budgets,
mid-batch cancellation); on the pre-fix code every
one of them fails — deterministically for the budget accounting (the
old committing ``charge`` always overshoots under contention) and
probabilistically for the TOCTOU/interleaving races (the reduced GIL
switch interval makes those reproduce in a few thousand operations).
The ``@pytest.mark.stress`` hammers are the long-haul versions the CI
stress job runs (≥8 threads × ≥10k ops against one shared object).
"""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.engine import Engine, EngineCache, ResultCache, Scan, \
    plan_from_qlhs, plan_from_sentence
from repro.errors import OutOfFuel
from repro.logic import parse
from repro.qlhs import parse_program
from repro.symmetric import rado_hsdb
from repro.trace import Budget
from repro.trace.budget import CANCELLED


@pytest.fixture()
def tight_gil():
    """Force frequent GIL preemption so narrow race windows get hit."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    yield
    sys.setswitchinterval(previous)


def _run_threads(n, work):
    """Start ``n`` threads on a barrier; return escaped exceptions."""
    barrier = threading.Barrier(n)
    errors = []
    lock = threading.Lock()

    def runner(i):
        try:
            barrier.wait()
            work(i)
        except BaseException as exc:  # noqa: BLE001 — collected for asserts
            with lock:
                errors.append(exc)

    threads = [threading.Thread(target=runner, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return errors


def diverging_plan():
    """The canonical diverging QLhs program (trips any step budget)."""
    return plan_from_qlhs(parse_program("while |Y1| = 0 do { Y2 := !Y2 }"))


class TestBudgetAtomicity:
    """Satellite 1: ``charge`` must be atomic and exactly enforced."""

    def test_hammered_budget_is_exact(self, tight_gil):
        threads, ops = 8, 1000
        limit = threads * ops // 2
        budget = Budget(max_steps=limit)
        successes = [0] * threads
        trips = [0] * threads

        def work(i):
            for __ in range(ops):
                try:
                    budget.charge()
                    successes[i] += 1
                except OutOfFuel:
                    trips[i] += 1

        errors = _run_threads(threads, work)
        assert errors == []
        # Exact accounting: the counter equals the limit bit for bit,
        # every successful charge is visible, and OutOfFuel fired for
        # precisely the excess demand.  The pre-fix committing
        # ``steps += cost`` fails all three under contention.
        assert budget.steps == limit
        assert sum(successes) == limit
        assert sum(trips) == threads * ops - limit

    def test_failed_charge_does_not_consume(self):
        budget = Budget(max_steps=3)
        budget.charge(2)
        with pytest.raises(OutOfFuel) as exc:
            budget.charge(2)
        assert exc.value.steps == 4  # the attempted count
        assert budget.steps == 2     # nothing consumed by the failure
        budget.charge(1)             # the remaining allowance still fits
        assert budget.steps == 3


class TestResultCacheRaces:
    """Satellite 3 (+ tentpole): the striped cache under contention."""

    def test_get_put_toctou_stress(self, tight_gil):
        """Pre-fix: ``key in dict`` → evict → ``dict[key]`` raised
        KeyError under exactly this churn (reproduces in a few
        thousand ops at the tight switch interval)."""
        for trial in range(3):
            cache = ResultCache(maxsize=32)
            keys = [ResultCache.key("fp", Scan(0), ("k", j))
                    for j in range(48)]
            lookups = [0] * 8

            def work(i, cache=cache, keys=keys, lookups=lookups,
                     trial=trial):
                import random
                rng = random.Random(trial * 100 + i)
                for __ in range(3000):
                    key = keys[rng.randrange(len(keys))]
                    if rng.random() < 0.5:
                        cache.get(key)
                        lookups[i] += 1
                    else:
                        cache.put(key, i)

            errors = _run_threads(8, work)
            assert errors == []
            stats = cache.stats()
            assert stats.hits + stats.misses == sum(lookups)
            assert len(cache) <= cache.maxsize

    def test_striped_semantics_match_sequential(self):
        """Single-threaded, the stripes behave like one LRU dict."""
        cache = ResultCache(maxsize=3)
        keys = [ResultCache.key("fp", Scan(0), ("k", j)) for j in range(4)]
        for j, key in enumerate(keys):
            cache.put(key, j)
        # Global LRU: the oldest insert (key 0) went first.
        assert cache.get(keys[0]) is None
        assert cache.get(keys[3]) == 3
        assert cache.evictions == 1
        assert len(cache) == 3

    def test_concurrent_distinct_shards_do_not_serialize_errors(
            self, tight_gil):
        """Many writers on disjoint keys: exact counters, no loss."""
        cache = ResultCache(maxsize=4096)
        per_thread = 500

        def work(i):
            for j in range(per_thread):
                key = ResultCache.key("fp", Scan(0), ("w", i, j))
                cache.put(key, (i, j))
                assert cache.get(key) == (i, j)

        errors = _run_threads(8, work)
        assert errors == []
        assert len(cache) == 8 * per_thread
        assert cache.hits == 8 * per_thread
        assert cache.misses == 0


class TestEngineReentrancy:
    """Satellite 2: one engine, two threads, two isolated budgets."""

    @pytest.fixture(scope="class")
    def shared_engine(self):
        return Engine(rado_hsdb())

    def test_two_threads_keep_their_budgets(self, shared_engine,
                                            tight_gil):
        """Pre-fix, ``_active_budget`` was instance state: the big
        evaluation would adopt (and charge) the small evaluation's
        budget whenever the writes interleaved, so the big verdict
        reported a tripped small budget and vice versa."""
        plan = diverging_plan()
        big_steps, small_steps = 20_000, 200
        results = {}
        barrier = threading.Barrier(2)

        def run_big():
            barrier.wait()
            results["big"] = shared_engine.eval(
                plan, budget=Budget(max_steps=big_steps))

        def run_small():
            barrier.wait()
            results["small"] = shared_engine.eval(
                plan, budget=Budget(max_steps=small_steps))

        for __ in range(4):  # a few rounds of racing starts
            t1 = threading.Thread(target=run_big)
            t2 = threading.Thread(target=run_small)
            t1.start(), t2.start()
            t1.join(), t2.join()
            big, small = results["big"], results["small"]
            assert big.is_unknown and small.is_unknown
            # Each verdict carries *its own* budget's step count.
            assert big.steps > big_steps
            assert small_steps < small.steps <= small_steps + 1

    def test_interleaved_warm_answers_stay_correct(self, shared_engine,
                                                   tight_gil):
        plans = [plan_from_sentence(parse(s), shared_engine.signature)
                 for s in ("forall x. exists y. R1(x, y)",
                           "forall x. forall y. R1(x, y)")]
        expected = [shared_engine.holds(p) for p in plans]

        def work(i):
            for r in range(300):
                idx = (i + r) % len(plans)
                assert shared_engine.holds(plans[idx]) == expected[idx]

        errors = _run_threads(6, work)
        assert errors == []


class TestCancellationMidBatch:
    """Satellite (tests): cancel a running batch from another thread."""

    def test_cancel_from_another_thread_interrupts_batch(self):
        engine = Engine(rado_hsdb())
        pool = engine.db.domain.first(6)
        tuples = [(x, y) for x in pool for y in pool]
        started = threading.Event()
        release = threading.Event()
        original_member = engine._member

        def blocking_member(value, u):
            # Every membership call parks until released, so the batch
            # thread is guaranteed to be mid-tuple when ``cancel()``
            # lands and the next ``run.check()`` must observe it.
            started.set()
            release.wait(timeout=30)
            return original_member(value, u)

        engine._member = blocking_member
        outcome = {}

        def run_batch():
            try:
                outcome["answers"] = engine.batch_contains(Scan(0), tuples)
            except OutOfFuel as exc:
                outcome["error"] = exc

        worker = threading.Thread(target=run_batch)
        worker.start()
        assert started.wait(timeout=30), "batch never reached a worker"
        engine.cancel()          # from this thread, mid-batch
        release.set()
        worker.join(timeout=30)
        assert not worker.is_alive()
        assert "error" in outcome, "cancellation did not interrupt"
        assert outcome["error"].reason == CANCELLED

    def test_cancel_interrupts_sequential_batch(self):
        engine = Engine(rado_hsdb())
        pool = engine.db.domain.first(6)
        tuples = [(x, y) for x in pool for y in pool]
        original_member = engine._member

        def cancelling_member(value, u, _first=[True]):
            if _first[0]:
                _first[0] = False
                engine.cancel()  # as if another thread cancelled now
            return original_member(value, u)

        engine._member = cancelling_member
        with pytest.raises(OutOfFuel) as exc:
            engine.batch_contains(Scan(0), tuples)
        assert exc.value.reason == CANCELLED


class TestSharedCacheMultiEngine:
    """Tentpole: one ``EngineCache`` legitimately backing N engines."""

    def test_two_tenant_threads_agree_with_reference(self, tight_gil):
        reference = Engine(rado_hsdb())
        plans = [plan_from_sentence(parse(s), reference.signature)
                 for s in ("forall x. exists y. R1(x, y)",
                           "exists x. R1(x, x)",
                           "forall x. forall y. R1(x, y)")]
        expected = [reference.holds(p) for p in plans]
        cache = EngineCache()

        def work(i):
            engine = Engine(rado_hsdb(), cache=cache)
            for r in range(120):
                idx = (i + r) % len(plans)
                assert engine.holds(plans[idx]) == expected[idx]

        errors = _run_threads(4, work)
        assert errors == []
        stats = cache.results.stats()
        assert stats.hits + stats.misses > 0
        assert stats.size == len(cache.results)

    def test_parallel_batches_under_contention_bit_for_bit(
            self, tight_gil):
        """Four threads run sequential batches on one shared engine at
        once — the serve pool's shape — and each gets the reference
        answers, cold or warm."""
        engine = Engine(rado_hsdb())
        pool = engine.db.domain.first(8)
        tuples = [(x, y) for x in pool for y in pool]
        expected = Engine(rado_hsdb()).batch_contains(Scan(0), tuples)

        def work(i):
            # Each thread walks the grid from its own offset, so the
            # threads race on cold keys as well as warm ones.
            shift = i * len(tuples) // 4
            mine = tuples[shift:] + tuples[:shift]
            for __ in range(3):
                answers = engine.batch_contains(Scan(0), mine)
                assert answers == expected[shift:] + expected[:shift]

        errors = _run_threads(4, work)
        assert errors == []


@pytest.mark.stress
class TestStressHammers:
    """The long-haul hammers (≥8 threads × ≥10k ops) for the CI job."""

    def test_stress_campaign_is_clean(self):
        from repro.check.stress import run_stress
        report = run_stress(11, threads=8, ops=10_000)
        assert report["failures"] == []
        assert report["rounds"] == 1

    def test_shared_engine_cache_hammer(self):
        from repro.check.stress import hammer_engine
        result = hammer_engine(23, threads=8, ops=10_000)
        assert result["failures"] == []

    def test_result_cache_hammer_10k(self):
        from repro.check.stress import hammer_cache
        result = hammer_cache(31, threads=8, ops=10_000)
        assert result["failures"] == []

    def test_threadpool_shared_budget_hammer(self):
        """One fork shared by pool workers (the ``batch_contains``
        shape): charging stays exact through an executor too."""
        limit = 40_000
        budget = Budget(max_steps=limit)

        def charge_many(n):
            done = 0
            try:
                for __ in range(n):
                    budget.charge()
                    done += 1
            except OutOfFuel:
                pass
            return done

        with ThreadPoolExecutor(max_workers=8) as pool:
            counts = list(pool.map(charge_many, [10_000] * 8))
        assert budget.steps == limit
        assert sum(counts) == limit
