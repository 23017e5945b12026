"""Bounded memoization helpers.

Characteristic trees, tuple-equivalence oracles, and local-type
computations are pure but repeatedly consulted; these helpers cache their
results without letting caches grow without bound during long benchmark
sweeps.

Thread safety: both :func:`lru_cached` and :class:`CallCounter` are safe
to share across threads (see ``docs/concurrency.md``).  The memo wrapper
holds one re-entrant lock around lookup, computation, and insertion, so
a cold key is computed exactly once even under contention — the memoized
functions here are pure, so serializing their first computation is the
cheap correct choice, and a warm hit pays only one uncontended acquire.
A caller that must not wait behind someone else's computation (the
serving tier's event loop) probes with ``.peek``, which never blocks.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Callable, Hashable
from functools import wraps
from typing import TypeVar

R = TypeVar("R")


# Sentinel separating positional from keyword arguments in cache keys;
# an object() cannot collide with user-supplied hashable arguments.
_KWD_MARK = object()

#: What ``.peek`` returns when the memo cannot answer (a miss, or a
#: lock held by another thread).
MISS = object()


def _make_key(args: tuple, kwargs: dict) -> Hashable:
    """A stable, hashable key for a call signature.

    Positional-only calls key on the bare ``args`` tuple — preserving the
    historical key format so callers introspecting ``.cache`` (the
    benchmarks do) see the same keys as before.  Keyword arguments are
    appended after a sentinel, sorted by name so that ``f(a, x=1, y=2)``
    and ``f(a, y=2, x=1)`` share an entry.
    """
    if not kwargs:
        return args
    return args + (_KWD_MARK,) + tuple(sorted(kwargs.items()))


def lru_cached(maxsize: int = 65536) -> Callable[[Callable[..., R]], Callable[..., R]]:
    """An LRU cache decorator with introspection hooks.

    Unlike :func:`functools.lru_cache` the wrapper exposes the cache dict
    (``.cache``), a ``.misses`` counter (how many distinct subproblems a
    construction touched — the benchmarks report it), a ``.hits`` counter
    (how much re-asking the cache absorbed — the engine's
    :class:`~repro.engine.stats.EngineStats` reports it), an
    ``.evictions`` counter, and a ``.cache_clear()`` resetting all of
    them.  Keyword arguments are supported and keyed order-insensitively.
    ``.prime(result, *args, **kwargs)`` records ``result`` as the value
    of a call without making it or counting it — for a caller that
    knows another call's answer, such as a fixpoint ``f(f(x)) == f(x)``.
    ``.peek(*args, **kwargs)`` answers a call from the memo alone: the
    memoized value (a counted hit that refreshes LRU order) or
    :data:`MISS` (counted nowhere).  It never calls the function and
    never waits for the lock — since the lock is held for a whole cold
    computation, a lock held by another thread reads as a miss.

    The wrapper is **thread-safe**: one re-entrant lock guards the
    cache and its counters, held across the underlying call too, so a
    cold key is computed once even when several threads race for it
    (re-entrant so memoized functions may recurse through themselves).
    The lock object is exposed as ``.lock`` for introspection.

    Doctest::

        >>> @lru_cached(maxsize=2)
        ... def square(n):
        ...     return n * n
        >>> square(2), square(2), square(3)
        (4, 4, 9)
        >>> square.hits, square.misses, square.evictions
        (1, 2, 0)
        >>> square(4)          # evicts the LRU entry (2)
        16
        >>> square.evictions
        1
        >>> square.cache_clear(); square.misses
        0
        >>> square.prime(25, 5); square(5), square.misses
        (25, 0)

    Keyword arguments key order-insensitively::

        >>> @lru_cached()
        ... def scaled(n, *, a=0, b=0):
        ...     return n + a + b
        >>> scaled(1, a=2, b=3), scaled(1, b=3, a=2)
        (6, 6)
        >>> scaled.hits, scaled.misses
        (1, 1)

    ``peek`` never computes, reads a lock held elsewhere as a miss, and
    counts its hits but not its misses::

        >>> import threading
        >>> @lru_cached()
        ... def double(n):
        ...     print("computing", n)
        ...     return 2 * n
        >>> double.peek(3) is MISS
        True
        >>> double(3)
        computing 3
        6
        >>> double.peek(3), double.hits, double.misses
        (6, 1, 1)
        >>> held, release = threading.Event(), threading.Event()
        >>> def hold():
        ...     with double.lock:
        ...         held.set()
        ...         release.wait(5)
        >>> holder = threading.Thread(target=hold)
        >>> holder.start(); held.wait(5)
        True
        >>> double.peek(3) is MISS
        True
        >>> release.set(); holder.join(5)
        >>> double.peek(4) is MISS
        True
        >>> double.hits, double.misses
        (1, 1)
    """

    def decorate(fn: Callable[..., R]) -> Callable[..., R]:
        cache: OrderedDict[Hashable, R] = OrderedDict()
        lock = threading.RLock()

        @wraps(fn)
        def wrapper(*args: Hashable, **kwargs: Hashable) -> R:
            key = _make_key(args, kwargs)
            with lock:
                if key in cache:
                    cache.move_to_end(key)
                    wrapper.hits += 1  # type: ignore[attr-defined]
                    return cache[key]
                # Compute with the lock held: fn is pure, recursion is
                # covered by re-entrancy, and racing threads wait for
                # one computation instead of duplicating it.
                result = fn(*args, **kwargs)
                wrapper.misses += 1  # type: ignore[attr-defined]
                store(key, result)
                return result

        def store(key: Hashable, result: R) -> None:
            cache[key] = result
            if len(cache) > maxsize:
                cache.popitem(last=False)
                wrapper.evictions += 1  # type: ignore[attr-defined]

        def prime(result: R, *args: Hashable, **kwargs: Hashable) -> None:
            with lock:
                store(_make_key(args, kwargs), result)

        def peek(*args: Hashable, **kwargs: Hashable) -> R:
            key = _make_key(args, kwargs)
            if not lock.acquire(blocking=False):
                return MISS  # type: ignore[return-value]
            try:
                if key not in cache:
                    return MISS  # type: ignore[return-value]
                cache.move_to_end(key)
                wrapper.hits += 1  # type: ignore[attr-defined]
                return cache[key]
            finally:
                lock.release()

        def cache_clear() -> None:
            with lock:
                cache.clear()
                wrapper.hits = 0  # type: ignore[attr-defined]
                wrapper.misses = 0  # type: ignore[attr-defined]
                wrapper.evictions = 0  # type: ignore[attr-defined]

        wrapper.cache = cache  # type: ignore[attr-defined]
        wrapper.lock = lock  # type: ignore[attr-defined]
        wrapper.hits = 0  # type: ignore[attr-defined]
        wrapper.misses = 0  # type: ignore[attr-defined]
        wrapper.evictions = 0  # type: ignore[attr-defined]
        wrapper.cache_clear = cache_clear  # type: ignore[attr-defined]
        wrapper.prime = prime  # type: ignore[attr-defined]
        wrapper.peek = peek  # type: ignore[attr-defined]
        return wrapper

    return decorate


class CallCounter:
    """Wrap a callable and count its invocations.

    Used to instrument oracles: Definition 2.4 queries a database only
    through "is u ∈ Rᵢ?" questions, and experiments report how many such
    questions each algorithm asks.

    The counter increment is atomic (guarded by a private lock), so a
    database shared between engine threads never loses oracle-question
    counts to an interleaved ``calls += 1``.  The wrapped callable runs
    *outside* the lock.

    Doctest::

        >>> counted = CallCounter(abs, name="abs")
        >>> counted(-3), counted(4)
        (3, 4)
        >>> counted.calls
        2
        >>> counted.reset(); counted
        CallCounter(abs, calls=0)
    """

    def __init__(self, fn: Callable[..., R], name: str = ""):
        self._fn = fn
        self.name = name or getattr(fn, "__name__", "callable")
        self.calls = 0
        self._lock = threading.Lock()

    def __call__(self, *args, **kwargs) -> R:
        with self._lock:
            self.calls += 1
        return self._fn(*args, **kwargs)

    def reset(self) -> None:
        """Zero the call counter."""
        with self._lock:
            self.calls = 0

    def __repr__(self) -> str:
        return f"CallCounter({self.name}, calls={self.calls})"
