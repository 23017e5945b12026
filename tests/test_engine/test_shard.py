"""Unit tests for :mod:`repro.engine.shard` (the process-pool executor).

The agreement workhorses run a real two-worker pool once per module
(the ``executor`` fixture) — worker processes are expensive to start,
and reusing one pool across tests is exactly the warm-cache posture
the executor promises to support.
"""

import pytest

from repro.engine import (
    Engine,
    MachineFixpoint,
    ShardExecutor,
    ShardTaskError,
    UnshardableDatabaseError,
    WorkerPool,
    derive_spec,
    plan_from_qlhs,
    plan_from_sentence,
)
from repro.engine.shard import shard_index
from repro.fcf.relation import cofinite_value, finite_value
from repro.fcf.database import FcfDatabase
from repro.logic import parse
from repro.qlhs.parser import parse_program
from repro.symmetric import rado_hsdb
from repro.trace import Budget, TraceRecorder, recording

SENTENCES = [
    "forall x. exists y. R1(x, y)",
    "exists x. R1(x, x)",
    "exists x. exists y. (R1(x, y) and x != y)",
    "forall x. forall y. (R1(x, y) -> R1(y, x))",
    "exists x. forall y. R1(x, y)",
]


@pytest.fixture(scope="module")
def executor():
    with ShardExecutor(2) as ex:
        yield ex


@pytest.fixture()
def engine():
    return Engine(rado_hsdb())


def _plans(engine):
    return [plan_from_sentence(parse(s), engine.signature)
            for s in SENTENCES]


class TestShardIndex:
    def test_deterministic_and_in_range(self):
        for shards in (1, 2, 3, 7):
            got = shard_index("fp", "payload", shards)
            assert got == shard_index("fp", "payload", shards)
            assert 0 <= got < shards

    def test_content_sensitivity(self):
        # Different fingerprints or payloads may land elsewhere; over
        # many payloads every shard of a 4-way split gets work.
        hit = {shard_index("fp", f"p{i}", 4) for i in range(64)}
        assert hit == {0, 1, 2, 3}

    def test_zero_shards_clamps(self):
        assert shard_index("fp", "p", 0) == 0


class TestDeriveSpec:
    def test_builtin_by_name(self):
        spec = derive_spec(rado_hsdb())
        assert spec == {"name": "rado",
                        "entry": {"kind": "builtin", "source": "rado"}}

    def test_fcf_serializes_its_relations(self):
        db = FcfDatabase([finite_value(2, [(0, 1), (1, 0)]),
                          cofinite_value(1, [(0,)])], name="pair")
        spec = derive_spec(db)
        assert spec["name"] == "pair"
        assert spec["entry"]["kind"] == "fcf"
        assert spec["entry"]["relations"] == [
            {"rank": 2, "tuples": [[0, 1], [1, 0]]},
            {"rank": 1, "tuples": [[0]], "cofinite": True}]

    def test_unrecognized_database_raises(self):
        class Fake:
            name = "not-a-builtin"

        with pytest.raises(UnshardableDatabaseError):
            derive_spec(Fake())


class TestWorkerPool:
    def test_single_worker_runs_inline(self):
        pool = WorkerPool(1)
        assert not pool.parallel
        # id() would differ across processes; inline it cannot.
        marker = object()
        assert pool.submit(id, marker).result() == id(marker)
        assert pool._pool is None  # no process pool was ever created

    def test_inline_submit_captures_exceptions(self):
        future = WorkerPool(1).submit(int, "boom")
        with pytest.raises(ValueError):
            future.result()

    def test_map_preserves_order_inline(self):
        assert WorkerPool(1).map(str, [3, 1, 2]) == ["3", "1", "2"]

    def test_close_is_idempotent(self):
        pool = WorkerPool(1)
        pool.close()
        pool.close()


class TestEvalBatch:
    def test_bit_for_bit_agreement(self, executor, engine):
        plans = _plans(engine)
        sequential = Engine(rado_hsdb()).eval_batch(plans)
        sharded = executor.eval_batch(engine, plans)
        assert ([v.status for v in sharded]
                == [v.status for v in sequential])

    def test_merge_preserves_request_order(self, executor, engine):
        plans = _plans(engine)
        sharded = executor.eval_batch(engine, plans)
        for plan, verdict in zip(plans, sharded):
            assert verdict.status == engine.eval(plan).status

    def test_single_plan_falls_back_to_sequential(self, executor,
                                                  engine):
        plans = _plans(engine)[:1]
        got = executor.eval_batch(engine, plans)
        assert got[0].status == engine.eval(plans[0]).status

    def test_machine_fixpoint_evaluates_locally(self, executor, engine):
        # An unserializable member (the GMhs route lowers to a
        # MachineFixpoint, which hashes by callable identity and cannot
        # cross the process boundary) rides along without sinking the
        # batch: it evaluates on the coordinator, its batch-mates shard.
        from repro.engine import lower_all
        gmhs = lower_all(parse("exists x. R1(x, x)"), engine.signature,
                         include_gmhs=True)["gmhs"]
        assert isinstance(gmhs, MachineFixpoint)
        plans = _plans(engine)
        plans.insert(2, gmhs)
        sequential = Engine(rado_hsdb()).eval_batch(plans)
        sharded = executor.eval_batch(engine, plans)
        assert ([v.status for v in sharded]
                == [v.status for v in sequential])

    def test_diverging_member_stays_unknown(self, executor, engine):
        plans = _plans(engine)
        plans.append(plan_from_qlhs(
            parse_program("while |Y1| = 0 do { Y2 := !Y2 }")))
        budget = Budget(max_steps=500)
        sharded = executor.eval_batch(engine, plans, budget=budget)
        assert sharded[-1].is_unknown
        assert [v.status for v in sharded[:-1]] == [
            v.status for v in Engine(rado_hsdb()).eval_batch(plans[:-1])]

    def test_member_budgets_receive_worker_counters(self, executor,
                                                    engine):
        plans = _plans(engine)
        plans.append(plan_from_qlhs(
            parse_program("while |Y1| = 0 do { Y2 := !Y2 }")))
        members = [Budget(max_steps=10_000) for __ in plans]
        executor.eval_batch(engine, plans, budget=Budget(max_steps=500),
                            member_budgets=members)
        # The diverging member burned real (worker-side) fuel and the
        # coordinator's fork knows exactly how much.
        assert members[-1].steps > 0

    def test_member_budgets_must_match_plans(self, executor, engine):
        with pytest.raises(ValueError):
            executor.eval_batch(engine, _plans(engine),
                                member_budgets=[Budget()])

    def test_stats_absorb_worker_evaluations(self, executor, engine):
        before = engine.stats().evaluations
        executor.eval_batch(engine, _plans(engine))
        assert engine.stats().evaluations >= before + len(SENTENCES)

    def test_wrong_spec_is_caught_by_fingerprint_check(self, executor,
                                                       engine):
        bad = {"name": "clique",
               "entry": {"kind": "builtin", "source": "clique"}}
        with pytest.raises(ShardTaskError, match="fingerprint"):
            executor.eval_batch(engine, _plans(engine), spec=bad)

    def test_engine_entry_point(self, engine):
        # The documented way to run an engine's batch on several cores:
        # a scoped executor, whose workers are gone when the block ends.
        plans = _plans(engine)
        with ShardExecutor(2) as executor:
            got = executor.eval_batch(engine, plans)
        assert executor.pool._pool is None
        assert ([v.status for v in got]
                == [v.status for v in Engine(rado_hsdb()).eval_batch(plans)])

    def test_unshardable_database_raises(self, executor):
        # A database derive_spec cannot recognize cannot ship: the
        # caller passes spec= or evaluates in-process.
        from repro.core import finite_database
        from repro.symmetric.constructions import from_finite_database
        db = from_finite_database(
            finite_database([(2, [(0, 1)])], [0, 1], name="tiny"),
            name="tiny")
        engine = Engine(db)
        plans = [plan_from_sentence(parse(s), engine.signature)
                 for s in ("exists x. R1(x, x)",
                           "exists x. exists y. R1(x, y)")]
        with pytest.raises(UnshardableDatabaseError):
            executor.eval_batch(engine, plans)
        assert ([v.status for v in engine.eval_batch(plans)]
                == ["false", "true"])


class TestInProcessMembersHonourTheBudget:
    """Members the executor evaluates on the coordinator run under the
    caller's budget, as a worker would run them — never under the
    coordinator engine's own (here 50k steps, so a regression fails
    fast)."""

    @staticmethod
    def _coordinator():
        return Engine(rado_hsdb(), budget=50_000)

    def test_fallback_batch_uses_the_template(self, executor):
        engine = self._coordinator()
        reference = Engine(rado_hsdb()).eval(
            _diverging(), budget=Budget(max_steps=500))
        # One member cannot fill two shards: the batch runs in-process.
        got = executor.eval_batch(engine, [_diverging()],
                                  budget=Budget(max_steps=500))
        assert got[0].is_unknown
        assert got[0].steps == reference.steps < 1_000

    def test_fallback_batch_charges_member_budgets(self, executor):
        engine = self._coordinator()
        members = [Budget(max_steps=500)]
        got = executor.eval_batch(engine, [_diverging()],
                                  member_budgets=members)
        assert got[0].is_unknown
        assert 0 < members[0].steps <= 500

    def test_unserializable_member_uses_its_member_budget(self,
                                                          executor):
        from repro.engine import lower_all
        engine = self._coordinator()
        gmhs = lower_all(parse("exists x. R1(x, x)"), engine.signature,
                         include_gmhs=True)["gmhs"]
        plans = _plans(engine)
        plans.insert(1, gmhs)
        members = [Budget(max_steps=10_000_000) for __ in plans]
        members[1].cancel()
        got = executor.eval_batch(engine, plans, member_budgets=members)
        assert got[1].is_unknown and got[1].reason == "cancelled"
        assert [v.status for v in got[:1] + got[2:]] == [
            v.status for v in Engine(rado_hsdb()).eval_batch(
                _plans(engine))]


class TestSpanReplay:
    def test_worker_spans_reparent_under_the_batch(self, executor,
                                                   engine):
        recorder = TraceRecorder()
        with recording(recorder):
            executor.eval_batch(engine, _plans(engine))
        trace = recorder.trace()
        batch = [s for s in trace.ordered()
                 if s.name == "engine.shard_batch"]
        tasks = [s for s in trace.ordered()
                 if s.name == "engine.shard_task"]
        assert len(batch) == 1
        assert tasks, "worker spans did not replay"
        for task in tasks:
            assert task.parent_id == batch[0].span_id
            assert task.depth == batch[0].depth + 1


def _diverging():
    return plan_from_qlhs(parse_program("while |Y1| = 0 do { Y2 := !Y2 }"))
