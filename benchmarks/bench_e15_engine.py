"""E15 — the unified engine: fingerprint-keyed caching pays for itself.

Claim: generic queries (Definition 2.4) depend on the database only up
to isomorphism, so a result cache keyed by structural fingerprint is
sound — and profitable.  Measured: warm-vs-cold speedup on the Rado
sentence workload (warm must be ≥5× faster than cold direct
evaluation), cache hit rates on the 68-class ≅ₗ-classification workload
routed through one shared cache, and batch membership agreeing with
the database's own membership test tuple for tuple.
"""

import time

from repro.engine import Engine, EngineCache, Scan, plan_from_sentence
from repro.logic import holds_sentence, parse
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
ROUNDS = 8


def _run_direct(db):
    return [holds_sentence(db, parse(s)) for s in RADO_WORKLOAD]


def _run_engine(engine, plans):
    return [engine.holds(p) for p in plans]


def test_e15_warm_cache_speedup():
    """Warm engine evaluation beats cold direct evaluation ≥5×."""
    # Cold: a fresh database each round, direct Theorem 6.3 evaluation.
    t0 = time.perf_counter()
    for __ in range(ROUNDS):
        cold_answers = _run_direct(rado_hsdb())
    cold = time.perf_counter() - t0

    engine = Engine(rado_hsdb())
    plans = [plan_from_sentence(parse(s), engine.signature)
             for s in RADO_WORKLOAD]
    warm_answers = _run_engine(engine, plans)  # first pass fills cache
    t0 = time.perf_counter()
    for __ in range(ROUNDS):
        warm_answers = _run_engine(engine, plans)
    warm = time.perf_counter() - t0

    speedup = cold / max(warm, 1e-9)
    stats = engine.stats()
    report("E15 warm-cache speedup (Rado workload)", [
        ("cold direct", f"{cold * 1e3:.2f} ms", f"{ROUNDS} rounds"),
        ("warm engine", f"{warm * 1e3:.2f} ms", f"{ROUNDS} rounds"),
        ("speedup", f"{speedup:.1f}x", "(acceptance floor: 5x)"),
        ("result cache", f"{stats.result_cache.hits} hits",
         f"{stats.result_cache.hit_rate:.0%} hit rate"),
    ])
    assert warm_answers == cold_answers
    assert speedup >= 5.0


def test_e15_shared_cache_across_copies(benchmark):
    """Independently built Rado copies share one fingerprint-keyed
    cache: the second tenant starts warm."""
    cache = EngineCache()
    first = Engine(rado_hsdb(), cache=cache)
    plans = [plan_from_sentence(parse(s), first.signature)
             for s in RADO_WORKLOAD]
    expected = _run_engine(first, plans)

    def warm_tenant():
        tenant = Engine(rado_hsdb(), cache=cache)
        return _run_engine(tenant, plans)

    answers = benchmark(warm_tenant)
    assert answers == expected
    assert cache.results.hits > 0


def test_e15_batch_membership(benchmark):
    """A cold batch answers every tuple as ``db.contains`` does."""
    db = rado_hsdb()
    pool = db.domain.first(12)
    tuples = [(x, y) for x in pool for y in pool]

    def cold_batch():
        return Engine(rado_hsdb()).batch_contains(Scan(0), tuples)

    answers = benchmark(cold_batch)
    assert answers == [db.contains(0, u) for u in tuples]
    report("E15 batch membership", [
        ("tuples", len(tuples)),
        ("agreement", "bit-for-bit with db.contains"),
    ])


def _colored_db():
    """A type-(2, 1) hs-r-db — the paper's 68-class signature at rank 2
    (count_local_types((2, 1), 2) == 68)."""
    from repro.core import finite_database
    from repro.symmetric import INFINITE, component_union

    tri = finite_database(
        [(2, [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)]),
         (1, [(0,)])],
        [0, 1, 2], name="K3c")
    edge = finite_database([(2, [(0, 1), (1, 0)]), (1, [])],
                           [0, 1], name="K2")
    return component_union([(tri, INFINITE), (edge, INFINITE)],
                           name="K3c+K2")


COLORED_WORKLOAD = [
    "exists x. R2(x)",
    "forall x. R2(x)",
    "exists x. exists y. (R1(x, y) and R2(x))",
    "forall x. (R2(x) -> exists y. R1(x, y))",
]


def test_e15_engine_matches_direct_on_68_class_type(benchmark):
    """The 68-class signature (2, 1): warm engine pass agrees with the
    direct evaluator sentence-for-sentence."""
    engine = Engine(_colored_db())
    plans = [plan_from_sentence(parse(s), engine.signature)
             for s in COLORED_WORKLOAD]
    _run_engine(engine, plans)  # warm up

    answers = benchmark(_run_engine, engine, plans)
    direct = [holds_sentence(_colored_db(), parse(s))
              for s in COLORED_WORKLOAD]
    assert answers == direct
    report("E15 type-(2,1) agreement", [
        (s, a) for s, a in zip(COLORED_WORKLOAD, answers)])
