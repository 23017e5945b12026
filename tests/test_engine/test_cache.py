"""The two-level cache and the upgraded ``lru_cached`` it builds on."""

from repro.engine import (
    Engine,
    EngineCache,
    PlanCache,
    ResultCache,
    Scan,
    Union,
    plan_from_sentence,
)
from repro.logic import parse
from repro.symmetric import infinite_clique
from repro.util.memo import lru_cached


class TestLruCached:
    def test_positional_keys_unchanged(self):
        """Historical key format: bare args tuples (benchmarks read
        ``.cache`` directly)."""
        @lru_cached()
        def f(a, b):
            return a + b

        assert f(1, 2) == 3
        assert (1, 2) in f.cache

    def test_kwargs_supported(self):
        calls = []

        @lru_cached()
        def f(a, b=0):
            calls.append((a, b))
            return a + b

        assert f(1, b=2) == 3
        assert f(1, b=2) == 3
        assert calls == [(1, 2)]  # second call served from cache

    def test_kwarg_order_insensitive(self):
        calls = []

        @lru_cached()
        def f(*, x=0, y=0):
            calls.append(1)
            return x + y

        assert f(x=1, y=2) == f(y=2, x=1) == 3
        assert len(calls) == 1

    def test_hits_and_misses_counted(self):
        @lru_cached()
        def f(a):
            return a

        f(1), f(1), f(2)
        assert f.misses == 2
        assert f.hits == 1

    def test_eviction_counted_and_bounded(self):
        @lru_cached(maxsize=2)
        def f(a):
            return a

        f(1), f(2), f(3)
        assert len(f.cache) == 2
        assert f.evictions == 1
        assert (1,) not in f.cache  # LRU order: oldest left first

    def test_cache_clear_resets_everything(self):
        @lru_cached()
        def f(a):
            return a

        f(1), f(1)
        f.cache_clear()
        assert not f.cache
        assert f.hits == f.misses == f.evictions == 0
        f(1)
        assert f.misses == 1

    def test_prime_records_without_counting(self):
        @lru_cached(maxsize=2)
        def f(a):
            raise AssertionError("primed calls are not made")

        f.prime(10, 1)
        assert f(1) == 10
        assert (f.hits, f.misses) == (1, 0)
        f.prime(20, 2)
        f.prime(30, 3)
        assert len(f.cache) == 2 and f.evictions == 1


class TestPlanCache:
    def test_normalization_memoized(self):
        pc = PlanCache()
        plan = Union((Scan(0), Scan(0)))
        first = pc.normalized(plan)
        second = pc.normalized(plan)
        assert first == second == Scan(0)
        stats = pc.stats()
        assert stats.hits == 1
        assert stats.misses == 1

    def test_signature_in_key(self):
        pc = PlanCache()
        pc.normalized(Scan(0), (2,))
        pc.normalized(Scan(0), (1,))
        assert pc.stats().misses == 2  # different signatures, no mixup

    def test_clear(self):
        pc = PlanCache()
        pc.normalized(Scan(0))
        pc.clear()
        assert pc.stats().size == 0
        assert pc.stats().misses == 0


def _sentence_plans(engine, *texts):
    return [plan_from_sentence(parse(t), engine.signature) for t in texts]


class TestPlanCacheAccounting:
    def test_cold_eval_is_one_miss(self):
        engine = Engine(infinite_clique())
        plan, = _sentence_plans(engine, "forall x. exists y. R1(x, y)")
        engine.eval(plan)
        stats = engine.stats()
        assert (stats.plan_cache.hits, stats.plan_cache.misses) == (0, 1)
        assert stats.optimizer.optimizations == 1

    def test_preparing_a_prepared_plan_is_a_hit(self):
        engine = Engine(infinite_clique())
        plan, = _sentence_plans(engine, "exists x. not R1(x, x)")
        prepared = engine.prepare(plan)
        assert engine.prepare(prepared) is prepared
        stats = engine.stats()
        assert (stats.plan_cache.hits, stats.plan_cache.misses) == (1, 1)
        assert stats.optimizer.optimizations == 1

    def test_unoptimized_prepare_is_idempotent_too(self):
        engine = Engine(infinite_clique(), optimize=False)
        plan, = _sentence_plans(engine, "exists x. not R1(x, x)")
        engine.prepare(engine.prepare(plan))
        stats = engine.stats().plan_cache
        assert (stats.hits, stats.misses) == (1, 1)

    def test_batch_optimizes_each_member_once(self):
        engine = Engine(infinite_clique())
        plans = _sentence_plans(engine, "exists x. R1(x, x)",
                                "forall x. exists y. R1(x, y)",
                                "exists x. forall y. not R1(x, y)")
        engine.eval_batch(plans)
        stats = engine.stats()
        assert stats.plan_cache.misses == 3
        assert stats.optimizer.optimizations == 3


class TestResultCache:
    def test_put_get_and_counters(self):
        rc = ResultCache()
        key = ResultCache.key("fp", Scan(0), ())
        assert rc.get(key) is None
        rc.put(key, "value")
        assert rc.get(key) == "value"
        assert rc.hits == 1
        assert rc.misses == 1

    def test_fingerprint_isolates_tenants(self):
        rc = ResultCache()
        rc.put(ResultCache.key("fp-a", Scan(0), ()), "a's answer")
        assert rc.get(ResultCache.key("fp-b", Scan(0), ())) is None

    def test_lru_eviction(self):
        rc = ResultCache(maxsize=2)
        for i in range(3):
            rc.put(ResultCache.key("fp", Scan(0), ("q", i)), i)
        assert len(rc) == 2
        assert rc.evictions == 1
        assert rc.get(ResultCache.key("fp", Scan(0), ("q", 0))) is None

    def test_contains_does_not_touch_counters(self):
        rc = ResultCache()
        key = ResultCache.key("fp", Scan(0), ())
        assert key not in rc
        assert rc.hits == rc.misses == 0

    def test_stats_snapshot(self):
        rc = ResultCache()
        rc.put(ResultCache.key("fp", Scan(0), ()), 1)
        rc.get(ResultCache.key("fp", Scan(0), ()))
        s = rc.stats()
        assert s.hits == 1 and s.size == 1
        assert 0.0 < s.hit_rate <= 1.0

    def test_shared_probes_split_out(self):
        """``shared=True`` probes (compiled-boundary lookups inside a
        batch) count in the shared_* columns — a subset of the totals,
        not a separate ledger."""
        rc = ResultCache()
        key = ResultCache.key("fp", Scan(0), ())
        rc.get(key, shared=True)           # shared miss
        rc.put(key, "value")
        rc.get(key, shared=True)           # shared hit
        rc.get(key)                        # plain hit
        s = rc.stats()
        assert (s.shared_hits, s.shared_misses) == (1, 1)
        assert s.hits == 2 and s.misses == 1
        assert s.shared_hits <= s.hits and s.shared_misses <= s.misses

    def test_shared_counters_reset_on_clear(self):
        rc = ResultCache()
        key = ResultCache.key("fp", Scan(0), ())
        rc.get(key, shared=True)
        rc.clear()
        assert rc.shared_hits == rc.shared_misses == 0


def test_engine_cache_bundle_clear():
    cache = EngineCache(plan_maxsize=8, result_maxsize=8)
    cache.plans.normalized(Scan(0))
    cache.results.put(ResultCache.key("fp", Scan(0), ()), 1)
    cache.clear()
    assert cache.plans.stats().size == 0
    assert len(cache.results) == 0
