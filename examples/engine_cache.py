"""One engine, four frontends, fingerprint-keyed caching.

The paper proves four completeness results — L⁻/FO (Thms 2.1/6.3),
QLhs (Thm 3.1), QLf+ (Prop 4.3), GMhs (Thm 5.1).  ``repro.engine``
routes all four through one executor: queries lower into a small plan
IR, every sub-plan's value is cached, and the cache key includes a
structural *fingerprint* of the database.  Sharing answers across
distinct database objects is sound because the queries are generic
(Definition 2.4): a generic query cannot tell fingerprint-equal
databases apart.

Run:  python examples/engine_cache.py
"""

import time

from repro.engine import (
    Engine,
    EngineCache,
    Scan,
    fingerprint,
    plan_from_formula,
    plan_from_gmhs,
    plan_from_qlhs,
    plan_from_sentence,
)
from repro.graphs import mixed_components_hsdb
from repro.logic import Var, parse
from repro.qlhs.parser import parse_program
from repro.symmetric import rado_hsdb


def in_triangle(oracle):
    """A GMhs query procedure: vertices lying on a triangle."""
    out = set()
    for x in range(oracle.size):
        for y in oracle.children((x,)):
            if not oracle.atom(0, (x, y)):
                continue
            for z in oracle.children((x, y)):
                if (len({x, y, z}) == 3 and oracle.atom(0, (y, z))
                        and oracle.atom(0, (z, x))):
                    out.add((x,))
    return out


def main() -> None:
    db = mixed_components_hsdb()
    engine = Engine(db)
    print(f"database: {db.name}")
    print(f"fingerprint: {engine.fingerprint[:16]}…\n")

    # --- four frontends, one executor --------------------------------
    triangle_formula = parse(
        "exists y. exists z. (R1(x, y) and R1(y, z) and R1(z, x) "
        "and x != y and y != z and x != z)")
    routes = {
        "FO sentence": plan_from_sentence(
            parse("forall x. exists y. R1(x, y)"), db.signature),
        "FO open formula": plan_from_formula(
            triangle_formula, [Var("x")], db.signature),
        "QLhs program": plan_from_qlhs(
            parse_program("Y1 := down(R1 & swap(R1))")),
        "GMhs procedure": plan_from_gmhs(in_triangle),
    }
    for label, plan in routes.items():
        value = engine.evaluate(plan)
        shape = (f"rank {value.rank}, {len(value.paths)} classes"
                 if hasattr(value, "paths") else value)
        print(f"  {label:16s} -> {shape}")

    print()
    print(engine.stats().format())

    # --- the genericity argument, operational ------------------------
    # Two independently constructed Rado graphs fingerprint equal, so a
    # shared cache serves the second tenant from the first's answers.
    print("\nShared cache across independently built Rado copies:")
    cache = EngineCache()
    sentence = parse("forall x. exists y. (R1(x, y) and x != y)")
    first = Engine(rado_hsdb(), cache=cache)
    plan = plan_from_sentence(sentence, first.signature)

    t0 = time.perf_counter()
    answer = first.holds(plan)
    cold = time.perf_counter() - t0

    second = Engine(rado_hsdb(), cache=cache)   # a *different* object
    assert second.fingerprint == first.fingerprint
    t0 = time.perf_counter()
    again = second.holds(plan)
    warm = time.perf_counter() - t0
    assert again == answer
    print(f"  cold tenant: {cold * 1e3:7.2f} ms  -> {answer}")
    print(f"  warm tenant: {warm * 1e3:7.2f} ms  -> {again} "
          f"(served from the shared cache)")

    # Distinct databases never share: their fingerprints differ.
    print("\nTenant isolation:")
    for name, build in (("rado", rado_hsdb),
                        ("k3k2", mixed_components_hsdb)):
        print(f"  {name:6s} {fingerprint(build())[:24]}…")

    # --- batch membership ----------------------------------------------
    pool = first.db.domain.first(10)
    tuples = [(x, y) for x in pool for y in pool]
    answers = first.batch_contains(Scan(0), tuples)
    assert answers == [first.db.contains(0, u) for u in tuples]
    print(f"\nBatch membership: {len(tuples)} tuples, all agree with "
          f"db.contains ({sum(answers)} edges found)")


if __name__ == "__main__":
    main()
