"""The engine's two-level cache.

Level 1 — the **plan cache**: normalization (:func:`repro.engine.plan.
normalize`) is pure but walks the whole plan tree; it is memoized with
the kwargs-capable :func:`repro.util.memo.lru_cached`, so syntactically
repeated plans (every warm request) skip the rewrite entirely and two
differently written but ACI-equal plans converge on one key.

Level 2 — the **result cache**: finished answers keyed by
``(database fingerprint, normalized plan, args)``.  The fingerprint
(:mod:`repro.engine.fingerprint`) is what makes the entry safely
shareable across database *objects*: any two databases with the same
fingerprint agree on every generic query the engine computes, so a hit
is a correct answer regardless of which copy asked.  ``args`` carries
per-request parameters (e.g. the tuple of a membership test).

Both levels expose :class:`~repro.engine.stats.CacheStats` snapshots.

Thread safety (the serving-tier contract, ``docs/concurrency.md``):
one :class:`EngineCache` may back N engines on N threads.  The plan
cache inherits the locked memo of :func:`~repro.util.memo.lru_cached`;
the result cache is **lock-striped** — keys hash to one of several
shards, each an ``OrderedDict`` guarded by its own lock, so concurrent
lookups of distinct keys proceed in parallel while each individual
``get``/``put`` (LRU refresh included) is atomic.  Eviction keeps a
global bound with near-exact LRU order via per-entry touch stamps.
"""

from __future__ import annotations

import itertools
import threading
from collections import OrderedDict
from collections.abc import Hashable
from typing import Any

from ..util.memo import MISS, lru_cached
from .plan import Plan, normalize
from .stats import CacheStats

#: Default shard count of :class:`ResultCache` — enough stripes that
#: eight engine threads rarely collide, few enough that the all-shard
#: operations (``clear``, eviction victim scan) stay trivial.
DEFAULT_SHARDS = 16


class PlanCache:
    """Memoized plan preparation (level 1).

    Two memos: :meth:`normalized` (pure normalization, the historical
    entry point) and :meth:`prepared` (optimization, whose output is
    normalized, the engine's default since the optimizer landed).  A
    cold plan costs one memo miss.  Both functions are idempotent, so
    each miss also records its output as its own answer: preparing a
    prepared plan is a hit.  Both are thread-safe via the locked
    :func:`~repro.util.memo.lru_cached` wrapper; the optimizer's
    rewrite tallies accumulate under a private lock only on memo
    misses, so warm lookups stay contention-free.
    """

    def __init__(self, maxsize: int = 4096):
        self._normalize = lru_cached(maxsize=maxsize)(self._normalize_impl)
        self._prepare = lru_cached(maxsize=maxsize)(self._prepare_impl)
        self._opt_lock = threading.Lock()
        self._optimizations = 0
        self._rewrites: dict[str, int] = {}

    def _normalize_impl(self, plan: Plan, signature=None) -> Plan:
        out = normalize(plan, signature)
        self._normalize.prime(out, out, signature=signature)
        return out

    def _prepare_impl(self, plan: Plan, signature=None) -> Plan:
        # Imported here, not at module top: optimize.py imports plan.py
        # which this module also imports; keeping the heavy import lazy
        # avoids ordering constraints and costs one dict lookup per
        # memo *miss* only.
        from .optimize import optimize_result
        result = optimize_result(plan, signature)
        with self._opt_lock:
            self._optimizations += 1
            for name, count in result.rewrites:
                self._rewrites[name] = self._rewrites.get(name, 0) + count
        self._prepare.prime(result.plan, result.plan, signature=signature)
        return result.plan

    def normalized(self, plan: Plan,
                   signature: tuple[int, ...] | None = None) -> Plan:
        """The normalized form of ``plan`` (memoized)."""
        return self._normalize(plan, signature=signature)

    def prepared(self, plan: Plan,
                 signature: tuple[int, ...] | None = None, *,
                 optimize: bool = True) -> Plan:
        """The executable form of ``plan``: normalized and, unless
        ``optimize=False``, rewritten by :func:`repro.engine.optimize.
        optimize` (both memoized)."""
        if not optimize:
            return self._normalize(plan, signature=signature)
        return self._prepare(plan, signature=signature)

    def peek_prepared(self, plan: Plan,
                      signature: tuple[int, ...] | None = None, *,
                      optimize: bool = True) -> Plan | None:
        """:meth:`prepared` answered from its memo alone, or ``None``.

        Never prepares and never waits: a plan not yet memoized, or a
        memo whose lock another thread holds (it is held for a whole
        optimization), reads as ``None``.  A hit counts as a hit.
        """
        memo = self._prepare if optimize else self._normalize
        got = memo.peek(plan, signature=signature)
        return None if got is MISS else got

    def optimizer_stats(self) -> tuple[int, tuple[tuple[str, int], ...]]:
        """``(plans_optimized, ((rule, firings), ...))`` so far."""
        with self._opt_lock:
            return self._optimizations, tuple(sorted(self._rewrites.items()))

    def stats(self) -> CacheStats:
        """A :class:`CacheStats` snapshot across both memos."""
        norm, prep = self._normalize, self._prepare
        with norm.lock:
            hits, misses = norm.hits, norm.misses
            evictions, size = norm.evictions, len(norm.cache)
        with prep.lock:
            return CacheStats(hits=hits + prep.hits,
                              misses=misses + prep.misses,
                              evictions=evictions + prep.evictions,
                              size=size + len(prep.cache))

    def clear(self) -> None:
        """Drop every memoized preparation (counters reset too)."""
        self._normalize.cache_clear()
        self._prepare.cache_clear()
        with self._opt_lock:
            self._optimizations = 0
            self._rewrites.clear()


class _Shard:
    """One stripe of the result cache: an LRU dict plus its lock.

    Entries are two-slot lists ``[value, stamp]``; the stamp is a
    global monotonic touch counter used to pick the globally oldest
    entry at eviction time (per-shard LRU order alone would evict the
    newest insert whenever it landed in an otherwise empty shard).
    """

    __slots__ = ("lock", "data", "hits", "misses", "evictions",
                 "shared_hits", "shared_misses")

    def __init__(self):
        self.lock = threading.Lock()
        self.data: OrderedDict[Hashable, list] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.shared_hits = 0
        self.shared_misses = 0


class ResultCache:
    """Bounded, lock-striped LRU of finished answers (level 2).

    Keys are ``(fingerprint, plan, args)`` triples; values are whatever
    the executor produced (path frozensets, booleans, ``FcfValue``\\ s —
    all immutable, so sharing is safe).

    Concurrency contract: every public method is safe to call from any
    thread.  ``get`` is atomic (containment check, LRU refresh, and
    counter bump under one shard lock — no TOCTOU window), ``put``
    is atomic per shard with the global-bound eviction loop running
    lock-free between shards; the size may transiently overshoot
    ``maxsize`` by at most the number of concurrent writers and is
    restored to ``<= maxsize`` by the time every ``put`` returns.
    Counters satisfy ``hits + misses == counted lookups`` exactly, where
    a :meth:`peek` is a counted lookup only when it hits.

    Parameters
    ----------
    maxsize:
        Global entry bound across all shards.
    shards:
        Stripe count (clamped to ``maxsize`` so tiny caches keep exact
        single-dict semantics; default :data:`DEFAULT_SHARDS`).
    """

    def __init__(self, maxsize: int = 65536,
                 shards: int = DEFAULT_SHARDS):
        self.maxsize = maxsize
        nshards = max(1, min(shards, maxsize))
        self._shards = tuple(_Shard() for __ in range(nshards))
        self._ticker = itertools.count()

    @staticmethod
    def key(fingerprint: str, plan: Plan,
            args: Hashable = ()) -> Hashable:
        """The canonical ``(fingerprint, plan, args)`` cache key."""
        return (fingerprint, plan, args)

    def _shard_for(self, key: Hashable) -> _Shard:
        """The stripe ``key`` lives in (stable hash partition)."""
        return self._shards[hash(key) % len(self._shards)]

    def get(self, key: Hashable, default: Any = None, *,
            shared: bool = False) -> Any:
        """Counted lookup: a hit refreshes LRU order, a miss counts.

        Atomic under the key's shard lock: the historical
        ``key in dict`` / ``dict[key]`` two-step (which could raise
        ``KeyError`` when a concurrent ``put`` evicted in between) is
        folded into one locked access.

        ``shared=True`` marks the lookup as a *shared-subplan* probe
        (interior boundary of a compiled plan, or a batch common
        subplan): it still counts in ``hits``/``misses`` and
        additionally in the ``shared_*`` split, so observers can tell
        cross-query sharing from root-level traffic.
        """
        shard = self._shard_for(key)
        with shard.lock:
            entry = shard.data.get(key)
            if entry is not None:
                shard.data.move_to_end(key)
                entry[1] = next(self._ticker)
                shard.hits += 1
                if shared:
                    shard.shared_hits += 1
                return entry[0]
            shard.misses += 1
            if shared:
                shard.shared_misses += 1
            return default

    def peek(self, key: Hashable, default: Any = None) -> Any:
        """A lookup that counts only its hit.

        A hit refreshes LRU order and counts exactly as in :meth:`get`;
        a miss counts nothing.  For a probe whose miss hands the request
        to a path that makes its own counted :meth:`get` (the serving
        tier's event-loop answer, :meth:`Engine.cached_verdict
        <repro.engine.executor.Engine.cached_verdict>`), so one lookup is
        never counted twice.
        """
        shard = self._shard_for(key)
        with shard.lock:
            entry = shard.data.get(key)
            if entry is None:
                return default
            shard.data.move_to_end(key)
            entry[1] = next(self._ticker)
            shard.hits += 1
            return entry[0]

    def __contains__(self, key: Hashable) -> bool:
        # Pure containment check — does not touch the counters; use
        # ``get`` for the counted access path.
        shard = self._shard_for(key)
        with shard.lock:
            return key in shard.data

    def put(self, key: Hashable, value: Any) -> None:
        """Insert (or refresh) an entry, evicting the LRU on overflow."""
        shard = self._shard_for(key)
        with shard.lock:
            shard.data[key] = [value, next(self._ticker)]
            shard.data.move_to_end(key)
        while len(self) > self.maxsize:
            if not self._evict_one():
                break

    def _evict_one(self) -> bool:
        """Evict the (approximately) globally oldest entry.

        Scans shard heads for the minimal touch stamp, then pops that
        shard's LRU entry.  Between the scan and the pop another thread
        may touch the shard — the pop still removes *that shard's*
        oldest entry, so the policy degrades to near-LRU rather than
        breaking.  Returns ``False`` when every shard is empty.
        """
        victim: _Shard | None = None
        oldest: int | None = None
        for shard in self._shards:
            with shard.lock:
                if shard.data:
                    head = next(iter(shard.data.values()))
                    if oldest is None or head[1] < oldest:
                        oldest = head[1]
                        victim = shard
        if victim is None:
            return False
        with victim.lock:
            if not victim.data:
                return False
            victim.data.popitem(last=False)
            victim.evictions += 1
            return True

    # -- aggregate counters (summed across shards) ---------------------------

    @property
    def hits(self) -> int:
        """Total counted hits across all shards."""
        return sum(s.hits for s in self._shards)

    @property
    def misses(self) -> int:
        """Total counted misses across all shards."""
        return sum(s.misses for s in self._shards)

    @property
    def evictions(self) -> int:
        """Total LRU evictions across all shards."""
        return sum(s.evictions for s in self._shards)

    @property
    def shards(self) -> int:
        """Number of lock stripes."""
        return len(self._shards)

    @property
    def shared_hits(self) -> int:
        """Total shared-subplan probe hits across all shards."""
        return sum(s.shared_hits for s in self._shards)

    @property
    def shared_misses(self) -> int:
        """Total shared-subplan probe misses across all shards."""
        return sum(s.shared_misses for s in self._shards)

    def stats(self) -> CacheStats:
        """A :class:`CacheStats` snapshot of the result cache."""
        return CacheStats(hits=self.hits, misses=self.misses,
                          evictions=self.evictions, size=len(self),
                          shared_hits=self.shared_hits,
                          shared_misses=self.shared_misses)

    def items(self) -> list[tuple[Hashable, Any]]:
        """A point-in-time ``(key, value)`` snapshot of every entry.

        Collected shard by shard under each shard's lock (uncounted —
        LRU order and hit/miss tallies are untouched), so the snapshot
        is consistent per shard and safe against concurrent writers.
        This is what :meth:`repro.store.backend.Store.snapshot_cache`
        walks to persist a live cache.
        """
        out: list[tuple[Hashable, Any]] = []
        for shard in self._shards:
            with shard.lock:
                out.extend((key, entry[0])
                           for key, entry in shard.data.items())
        return out

    def clear(self) -> None:
        """Drop every entry and zero the hit/miss/eviction counters."""
        for shard in self._shards:
            with shard.lock:
                shard.data.clear()
                shard.hits = 0
                shard.misses = 0
                shard.evictions = 0
                shard.shared_hits = 0
                shard.shared_misses = 0

    def __len__(self) -> int:
        return sum(len(s.data) for s in self._shards)


class EngineCache:
    """The two levels, bundled (one per engine; shareable across them).

    Sharing one :class:`EngineCache` between several engines over
    fingerprint-equal databases is the intended deployment shape for a
    serving tier: the fingerprint in every result key keeps tenants
    with different databases from ever reading each other's entries,
    and both levels are thread-safe, so the sharers may live on
    different threads (``docs/concurrency.md`` states the full
    contract; the E18 experiment bounds the locking overhead).
    """

    def __init__(self, plan_maxsize: int = 4096,
                 result_maxsize: int = 65536,
                 result_shards: int = DEFAULT_SHARDS):
        self.plans = PlanCache(maxsize=plan_maxsize)
        self.results = ResultCache(maxsize=result_maxsize,
                                   shards=result_shards)

    def clear(self) -> None:
        """Clear both levels."""
        self.plans.clear()
        self.results.clear()
