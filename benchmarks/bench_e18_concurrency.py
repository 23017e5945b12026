"""E18 — concurrency: thread safety costs ≤10% on the warm path.

Claim: the lock-striped result cache and atomic budgets that make the
engine concurrency-correct (docs/concurrency.md) do not meaningfully
tax the single-threaded warm path that E15 measured.  Measured: the
warm Rado-workload time of a locked engine versus an identical engine
whose result cache is swapped for an inline reimplementation of the
pre-fix *unlocked* single-dict LRU (the seed semantics), sampled
interleaved best-of; the acceptance ceiling is a 1.10× ratio.  Also
measured: raw locked get/put throughput and a stress-campaign smoke
run that must come back with zero invariant failures.
"""

import time
from collections import OrderedDict

from repro.check.stress import run_stress
from repro.engine import Engine, EngineCache, Scan, plan_from_sentence
from repro.engine.cache import CacheStats, ResultCache
from repro.logic import parse
from repro.symmetric import rado_hsdb

from conftest import report

RADO_WORKLOAD = [
    "forall x. exists y. R1(x, y)",
    "exists x. R1(x, x)",
    "forall x. forall y. (R1(x, y) -> R1(y, x))",
    "exists x. exists y. (R1(x, y) and x != y)",
    "forall x. exists y. (R1(x, y) and x != y)",
    "exists x. forall y. R1(x, y)",
]
ROUNDS = 40       # warm rounds per timing sample
SAMPLES = 7       # interleaved best-of samples per variant
CEILING = 1.10    # acceptance: locked/unlocked warm-path ratio


class _UnlockedResultCache:
    """The pre-fix result cache, reconstructed: one plain LRU
    ``OrderedDict``, no locks, check-then-read two-step.  Only exists
    as the E18 baseline; never use this from more than one thread."""

    key = staticmethod(ResultCache.key)

    def __init__(self, maxsize: int = 65536):
        self.maxsize = maxsize
        self._data: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key, default=None, *, shared=False):
        """Uncoordinated counted lookup (the seed two-step; the seed
        had no shared-subplan split, so ``shared`` is ignored)."""
        if key in self._data:
            self._data.move_to_end(key)
            self.hits += 1
            return self._data[key]
        self.misses += 1
        return default

    def put(self, key, value) -> None:
        """Uncoordinated insert with tail eviction."""
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)
            self.evictions += 1

    def __contains__(self, key):
        return key in self._data

    def __len__(self):
        return len(self._data)

    def stats(self) -> CacheStats:
        """A snapshot in the shared :class:`CacheStats` shape."""
        return CacheStats(hits=self.hits, misses=self.misses,
                          evictions=self.evictions, size=len(self._data))

    def clear(self) -> None:
        """Drop all entries and counters."""
        self._data.clear()
        self.hits = self.misses = self.evictions = 0


def _warm_engine(cache: EngineCache) -> tuple[Engine, list]:
    engine = Engine(rado_hsdb(), cache=cache)
    plans = [plan_from_sentence(parse(s), engine.signature)
             for s in RADO_WORKLOAD]
    answers = [engine.holds(p) for p in plans]  # fill the cache
    assert answers  # warm pass ran
    return engine, plans


def _best_of(engine: Engine, plans: list, samples: int) -> float:
    best = float("inf")
    for __ in range(samples):
        t0 = time.perf_counter()
        for __ in range(ROUNDS):
            for plan in plans:
                engine.holds(plan)
        best = min(best, time.perf_counter() - t0)
    return best


def test_e18_lock_overhead_within_ceiling():
    """Locked warm path ≤1.10× the unlocked seed-semantics baseline."""
    locked_engine, plans = _warm_engine(EngineCache())
    unlocked_cache = EngineCache()
    unlocked_cache.results = _UnlockedResultCache()
    unlocked_engine, unlocked_plans = _warm_engine(unlocked_cache)

    # Interleave the samples so CPU-frequency drift hits both equally.
    locked = unlocked = float("inf")
    for __ in range(SAMPLES):
        unlocked = min(unlocked, _best_of(unlocked_engine,
                                          unlocked_plans, 1))
        locked = min(locked, _best_of(locked_engine, plans, 1))

    ratio = locked / max(unlocked, 1e-9)
    report("E18 lock overhead (warm Rado workload)", [
        ("unlocked (seed) warm", f"{unlocked * 1e3:.3f} ms",
         f"{ROUNDS} rounds"),
        ("locked (striped) warm", f"{locked * 1e3:.3f} ms",
         f"{ROUNDS} rounds"),
        ("ratio", f"{ratio:.3f}x", f"(ceiling: {CEILING}x)"),
    ])
    # Both engines agree bit for bit, of course.
    assert ([locked_engine.holds(p) for p in plans]
            == [unlocked_engine.holds(p) for p in unlocked_plans])
    assert ratio <= CEILING


def test_e18_raw_cache_op_overhead():
    """Microbenchmark: locked vs unlocked get/put, absolute cost.

    No hard ratio here — single ops are tens of nanoseconds and the
    ratio is noise-dominated; the report records the absolute per-op
    costs that justify the warm-path ceiling above."""
    n = 20_000
    keys = [ResultCache.key("fp", Scan(0), ("k", j % 512))
            for j in range(n)]

    def drive(cache) -> float:
        t0 = time.perf_counter()
        for j, key in enumerate(keys):
            if j & 1:
                cache.get(key)
            else:
                cache.put(key, j)
        return time.perf_counter() - t0

    locked_cache = ResultCache(maxsize=1024)
    unlocked_cache = _UnlockedResultCache(maxsize=1024)
    drive(locked_cache), drive(unlocked_cache)         # warm-up
    locked = min(drive(locked_cache) for __ in range(5))
    unlocked = min(drive(unlocked_cache) for __ in range(5))
    report("E18 raw cache op cost", [
        ("unlocked", f"{unlocked / n * 1e9:.0f} ns/op", f"{n} ops"),
        ("locked striped", f"{locked / n * 1e9:.0f} ns/op", f"{n} ops"),
    ])
    stats = locked_cache.stats()
    # 6 drives (1 warm-up + 5 timed), each issuing n//2 counted gets.
    assert stats.hits + stats.misses == 6 * (n // 2)
    assert len(locked_cache) <= 1024


def test_e18_stress_smoke():
    """A reduced stress campaign comes back clean (the full-size
    8×10k campaign is the CI stress job)."""
    t0 = time.perf_counter()
    stress_report = run_stress(1729, threads=4, ops=500)
    elapsed = time.perf_counter() - t0
    report("E18 stress campaign smoke (4 threads x 500 ops)", [
        ("hammers", ", ".join(stress_report["hammers"]), ""),
        ("failures", len(stress_report["failures"]), ""),
        ("elapsed", f"{elapsed:.2f} s", ""),
    ])
    assert stress_report["failures"] == []
