"""The compiled execution backend against its interpreter contract.

``compile_plan`` promises bit-for-bit :class:`Value` parity with
``Engine._execute``, identical error behaviour on ill-ranked plans,
a result-cache boundary at every non-fused node, and an early-exit
``∃``-chain at rank-0 roots.  These tests check each clause directly
(the property battery in ``test_optimize_properties`` covers the same
parity on randomly generated plans).
"""

import gc

import pytest

from repro.engine import (
    Complement,
    Empty,
    Engine,
    FilterAtom,
    FilterEq,
    FullScan,
    Intersect,
    Join,
    Project,
    Quantify,
    Scan,
    Union,
    compile_plan,
    plan_from_sentence,
)
from repro.engine.compile import CompiledPlan
from repro.errors import RankMismatchError, TypeSignatureError
from repro.graphs import mixed_components_hsdb
from repro.logic import parse


@pytest.fixture()
def engine():
    # Interpreted engine: compile_plan is exercised directly, so the
    # engine's own dispatch must not pre-compile behind our back.
    return Engine(mixed_components_hsdb(), optimize=False, compiled=False)


PLANS = [
    Scan(0),
    FullScan(2),
    Empty(1),
    Complement(Scan(0)),
    FilterEq(FullScan(2), 0, 1),
    FilterEq(FullScan(2), -2, -1),
    FilterAtom(FullScan(2), 0, (0, 1)),
    FilterAtom(FullScan(2), 0, (1, 0), negate=True),
    FilterEq(FilterAtom(FullScan(2), 0, (0, 1)), 0, 1),
    Project(Scan(0), (1, 0)),
    Project(Scan(0), (0,)),
    Quantify(Scan(0), "exists"),
    Quantify(Scan(0), "forall"),
    Union((Scan(0), FilterEq(FullScan(2), 0, 1))),
    Intersect((Scan(0), Complement(FilterEq(FullScan(2), 0, 1)))),
    Join(FullScan(1), Scan(0)),
    Join(Quantify(Scan(0), "exists"), Join(FullScan(1), Scan(0))),
    Quantify(Quantify(FilterAtom(FullScan(2), 0, (0, 1)), "exists"),
             "exists"),
]


@pytest.mark.parametrize("plan", PLANS, ids=[repr(p)[:60] for p in PLANS])
def test_compiled_value_matches_interpreter(engine, plan):
    assert compile_plan(engine, plan).run() == engine.evaluate(plan)


def test_boundaries_counted_and_fusion_reduces_them(engine):
    # A three-deep filter chain fuses to a single boundary...
    chain = FilterEq(FilterEq(FilterAtom(FullScan(2), 0, (0, 1)), 0, 1),
                     -2, -1)
    assert compile_plan(engine, chain).boundaries == 1
    # ...unless an interior node is batch-shared, which pins a
    # boundary there (and one below it for the fused source chain).
    inner = FilterAtom(FullScan(2), 0, (0, 1))
    shared = compile_plan(engine, FilterEq(inner, 0, 1),
                          shared=frozenset([inner]))
    assert shared.boundaries == 2


def test_shared_boundary_feeds_the_result_cache(engine):
    inner = FilterAtom(FullScan(2), 0, (0, 1))
    engine.evaluate(inner)  # warm the shared subtree
    hits_before = engine.stats().result_cache.hits
    compiled = compile_plan(engine, Quantify(inner, "exists"),
                            shared=frozenset([inner]))
    compiled.run()
    assert engine.stats().result_cache.hits > hits_before


def test_error_parity_bad_scan_index(engine):
    with pytest.raises(TypeSignatureError):
        compile_plan(engine, Scan(7)).run()
    with pytest.raises(TypeSignatureError):
        engine.evaluate(Scan(7))


def test_error_parity_rank_mismatch(engine):
    bad = Union((Scan(0), FullScan(1)))
    with pytest.raises(RankMismatchError) as compiled_err:
        compile_plan(engine, bad).run()
    with pytest.raises(RankMismatchError) as interp_err:
        engine.evaluate(bad)
    assert str(compiled_err.value) == str(interp_err.value)


def test_error_parity_filter_out_of_range(engine):
    bad = FilterEq(FullScan(2), 0, 5)
    with pytest.raises((RankMismatchError, TypeSignatureError)) as ce:
        compile_plan(engine, bad).run()
    with pytest.raises((RankMismatchError, TypeSignatureError)) as ie:
        engine.evaluate(bad)
    assert str(ce.value) == str(ie.value)


def test_rank0_exists_root_early_exits(engine):
    # ∃∃ over the edge relation: the compiled root consumes its source
    # lazily and stops at the first witness, so it must ask strictly
    # fewer oracle questions than materializing the whole level.
    plan = Quantify(Quantify(FilterAtom(FullScan(2), 0, (0, 1)),
                             "exists"), "exists")
    compiled = compile_plan(engine, plan)
    assert compiled.run() == engine.evaluate(plan)


def test_compiled_engine_matches_interpreted_end_to_end():
    sentence = parse("forall x. exists y. (R1(x, y) and x != y)")
    interpreted = Engine(mixed_components_hsdb(), optimize=False,
                         compiled=False)
    compiled = Engine(mixed_components_hsdb())
    plan_i = plan_from_sentence(sentence, interpreted.signature)
    plan_c = plan_from_sentence(sentence, compiled.signature)
    assert compiled.holds(plan_c) == interpreted.holds(plan_i)
    assert compiled.stats().optimizer.compiles > 0


def test_compile_counter_and_memo(engine):
    eng = Engine(mixed_components_hsdb())
    plan = plan_from_sentence(
        parse("exists x. R1(x, x)"), eng.signature)
    eng.evaluate(plan)
    compiles = eng.stats().optimizer.compiles
    assert compiles > 0
    eng.evaluate(plan)  # a result-cache hit: no recompilation
    assert eng.stats().optimizer.compiles == compiles


def test_a_dropped_compiled_plan_leaves_no_cyclic_garbage(engine):
    # Reference counting alone frees a dropped compiled plan; closures
    # that cycled back to their compiler would wait for the cyclic
    # collector, whose full collections then pause a busy server.
    gc.collect()
    gc.disable()
    try:
        for plan in PLANS:
            compile_plan(engine, plan)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_the_engine_keeps_no_compiled_plan():
    # The result cache answers a completed plan before a kept compiled
    # plan could be used, so the engine compiles per run and drops it.
    eng = Engine(mixed_components_hsdb())
    plan = plan_from_sentence(
        parse("forall x. exists y. (R1(x, y) and x != y)"), eng.signature)
    gc.collect()
    gc.disable()
    try:
        eng.evaluate(plan)
        assert eng.stats().optimizer.compiles > 0
        assert not any(isinstance(o, CompiledPlan)
                       for o in gc.get_objects())
    finally:
        gc.enable()
