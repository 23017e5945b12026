"""Oracle battery tests: clean agreement, injected bugs, abstention.

Three layers:

* on a healthy tree, a seed-7 prefix of the case stream must run every
  applicable oracle without a single ``FAIL`` (the checker's baseline
  soundness — a flaky oracle would poison every campaign);
* a *known-injected* frontend bug (mutation-style, via monkeypatch)
  must be caught by the differential oracle — this is the test that
  the checker actually checks something; and
* QLf+ representability partiality (``↑`` of a co-finite value) must
  surface as an ``UNKNOWN``/``unrepresentable`` abstention, never as a
  disagreement or a crash.
"""

import random

import pytest

from repro.check import oracles
from repro.check.generators import Case, FcfSpec, gen_case
from repro.check.oracles import (
    FAIL,
    OK,
    UNKNOWN,
    UNREPRESENTABLE,
    CaseContext,
    differential,
    run_oracles,
)

# ---------------------------------------------------------------------------
# Baseline: the healthy tree never disagrees with itself.
# ---------------------------------------------------------------------------

class TestCleanPrefix:
    def test_no_failures_on_seed7_prefix(self):
        rng = random.Random(7)
        for i in range(30):
            case = gen_case(rng, i)
            outcomes = run_oracles(CaseContext(case))
            for outcome in outcomes:
                assert not outcome.failed, (
                    f"{outcome.oracle} on case {i}: {outcome.detail}")

    def test_every_kind_reaches_a_comparison(self):
        """On the prefix, each kind's differential oracle is decisive
        (OK, not UNKNOWN) at least once — the battery is not vacuous."""
        rng = random.Random(7)
        decisive: set[str] = set()
        for i in range(60):
            case = gen_case(rng, i)
            if differential(CaseContext(case)).status == OK:
                decisive.add(case.kind)
        assert {"fo-hs", "fo-fcf", "term-fcf", "program-fcf"} <= decisive


# ---------------------------------------------------------------------------
# Mutation-style: an injected frontend bug must be caught.
# ---------------------------------------------------------------------------

TAUTOLOGY = Case(
    0, "fo-fcf", "fuzz",
    "exists x1. R1(x1, x1) or not R1(x1, x1)", "formula",
    fcf=FcfSpec(((2, ((0, 1), (1, 0)), False),)))

INTERSECTION = Case(
    1, "term-fcf", "fuzz", "R1 & !R1", "term",
    fcf=FcfSpec(((1, ((0,), (1,)), False),)))


class TestInjectedBugs:
    def test_negated_fo_evaluator_is_caught(self, monkeypatch):
        """Flipping the direct FO evaluator trips the differential
        oracle: the engine routes still answer correctly."""
        real = oracles.fo_evaluate
        monkeypatch.setattr(oracles, "fo_evaluate",
                            lambda db, f: not real(db, f))
        outcome = differential(CaseContext(TAUTOLOGY))
        assert outcome.status == FAIL
        assert "direct-fo" in outcome.detail

    def test_union_for_intersection_is_caught(self, monkeypatch):
        """A QLhs interpreter computing ∪ for ∩ disagrees with QLf+ on
        ``R1 & !R1`` (empty vs everything)."""
        from repro.qlhs.interpreter import Value

        class Flipped(oracles.QLhsInterpreter):
            def run(self, program, inputs=None, result_var="Y1"):
                value = super().run(program, inputs, result_var)
                universe = frozenset(self.hsdb.tree.level(value.rank))
                return Value(value.rank, universe - value.paths)

        monkeypatch.setattr(oracles, "QLhsInterpreter", Flipped)
        outcome = differential(CaseContext(INTERSECTION))
        assert outcome.status == FAIL
        assert "qlhs-direct" in outcome.detail

    def test_healthy_tree_passes_the_same_cases(self):
        """The two mutation probes are FAIL-free without the patch."""
        for case in (TAUTOLOGY, INTERSECTION):
            for outcome in run_oracles(CaseContext(case)):
                assert not outcome.failed, outcome.detail


# ---------------------------------------------------------------------------
# Abstention: QLf+ partiality is UNKNOWN, not FAIL.
# ---------------------------------------------------------------------------

class TestUnrepresentable:
    CASE = Case(2, "term-fcf", "fuzz", "up(!R1)", "term",
                fcf=FcfSpec(((1, ((0,),), False),)), rank=2)

    def test_qlf_route_abstains(self):
        ctx = CaseContext(self.CASE)
        route = ctx.routes()["qlf-direct"]
        assert route.verdict.is_unknown
        assert route.verdict.reason == UNREPRESENTABLE

    def test_differential_does_not_fail(self):
        outcome = differential(CaseContext(self.CASE))
        assert outcome.status in (OK, UNKNOWN)


# ---------------------------------------------------------------------------
# The shard oracle: process-pool execution agrees with in-process.
# ---------------------------------------------------------------------------

class TestShardOracle:
    def test_registered_for_every_kind(self):
        assert "shard" in oracles.ORACLES
        for kind, battery in oracles.ORACLES_BY_KIND.items():
            assert "shard" in battery, kind

    def test_clean_on_seed7_prefix(self):
        rng = random.Random(7)
        for i in range(12):
            outcome = oracles.shard(CaseContext(gen_case(rng, i)))
            assert not outcome.failed, f"case {i}: {outcome.detail}"

    def test_skips_unshardable_database(self, monkeypatch):
        from repro.engine.shard import UnshardableDatabaseError

        def refuse(db):
            raise UnshardableDatabaseError("no recipe")

        import repro.engine.shard as shard_mod
        monkeypatch.setattr(shard_mod, "derive_spec", refuse)
        outcome = oracles.shard(CaseContext(TAUTOLOGY))
        assert outcome.status == oracles.SKIP

    def test_verdicts_cross_the_process_boundary(self, monkeypatch):
        """One oracle call ships at least one batch of plans to the
        pool's worker processes, rather than answering in-process, on
        either database view."""
        from repro.engine.shard import WorkerPool

        shipped = []
        real_submit = WorkerPool.submit

        def spy(pool, fn, *args):
            if pool.parallel:
                shipped.extend(args)
            return real_submit(pool, fn, *args)

        monkeypatch.setattr(WorkerPool, "submit", spy)
        for case, view in ((TAUTOLOGY, "hs"), (INTERSECTION, "fcf")):
            shipped.clear()
            outcome = oracles.shard(CaseContext(case))
            assert outcome.status == OK
            assert any("plans" in task and task["view"] == view
                       for task in shipped), view

    def test_catches_a_lying_pool(self, monkeypatch):
        """A process pool that flips verdicts must FAIL the oracle."""
        from repro.engine.verdict import Verdict

        class Lying:
            def eval_batch(self, engine, plans, **kwargs):
                return [Verdict.of(not v.is_true) if v.known else v
                        for v in (engine.eval(p) for p in plans)]

        monkeypatch.setattr(oracles, "_shard_executor", Lying)
        outcome = oracles.shard(CaseContext(TAUTOLOGY))
        assert outcome.status == FAIL
