"""The sqlite store: schema, budget-class discipline, WAL sharing.

The budget-class tests are the PR 9 satellite-1 regression suite: a
persisted ``UNKNOWN(out_of_fuel)`` must never answer a request with a
*larger* budget than the one it was computed under (which might have
completed), while completed values answer any budget at all.
"""

import sqlite3

import pytest

from repro.engine.cache import EngineCache, ResultCache
from repro.engine.plan import Complement, FullScan, MachineFixpoint, Scan
from repro.engine.verdict import Verdict
from repro.fcf.relation import cofinite_value, finite_value
from repro.qlhs.interpreter import Value
from repro.store import ANY_BUDGET, Store, StoreError
from repro.store.backend import _truth
from repro.store.codec import args_to_json, canonical_plan_text, plan_hash

FP = "a" * 64        # a fabricated database fingerprint
FP2 = "b" * 64


@pytest.fixture
def store(tmp_path):
    with Store(tmp_path / "memo.sqlite") as s:
        yield s


class TestSchema:
    def test_fresh_file_has_empty_counts(self, store):
        assert store.counts() == {"databases": 0, "plans": 0,
                                  "values": 0, "verdicts": 0}

    def test_wal_mode_is_active(self, store):
        mode = store._conn.execute("PRAGMA journal_mode").fetchone()[0]
        assert mode == "wal"

    def test_reopen_same_file(self, tmp_path):
        path = tmp_path / "memo.sqlite"
        with Store(path) as s:
            s.record_database(FP, "tri", "builtin")
        with Store(path) as s:
            assert s.counts()["databases"] == 1

    def test_schema_version_mismatch_fails_loudly(self, tmp_path):
        path = tmp_path / "memo.sqlite"
        Store(path).close()
        conn = sqlite3.connect(path)
        conn.execute("UPDATE meta SET value='99' WHERE key='schema'")
        conn.commit()
        conn.close()
        with pytest.raises(StoreError):
            Store(path)

    def test_close_is_idempotent(self, tmp_path):
        s = Store(tmp_path / "memo.sqlite")
        s.close()
        s.close()


class TestDatabases:
    def test_record_and_list(self, store):
        store.record_database(FP, "tri", "builtin",
                              spec={"kind": "builtin", "source": "triangles"})
        store.record_database(FP2, "pair", "fcf", spec={"kind": "fcf"})
        rows = store.databases()
        assert [r["name"] for r in rows] == ["pair", "tri"]
        assert rows[1]["fingerprint"] == FP
        assert rows[1]["spec"]["source"] == "triangles"

    def test_record_is_an_upsert(self, store):
        store.record_database(FP, "tri", "builtin")
        store.record_database(FP, "tri", "builtin")
        assert store.counts()["databases"] == 1


class TestValues:
    def test_put_and_lookup(self, store):
        value = Value(1, frozenset({(0,), (1,)}))
        assert store.put_value(FP, Scan(0), value)
        assert store.lookup_value(FP, Scan(0)) == value
        assert store.counts() == {"databases": 0, "plans": 1,
                                  "values": 1, "verdicts": 0}

    def test_lookup_respects_args(self, store):
        store.put_value(FP, Scan(0), True, args=("contains", (0, 1)))
        assert store.lookup_value(FP, Scan(0)) is None
        assert store.lookup_value(
            FP, Scan(0), args=("contains", (0, 1))) is True

    def test_lookup_respects_fingerprint(self, store):
        store.put_value(FP, Scan(0), False)
        assert store.lookup_value(FP2, Scan(0)) is None

    def test_put_is_an_upsert(self, store):
        for __ in range(3):
            store.put_value(FP, Scan(0), True)
        assert store.counts()["values"] == 1

    def test_machine_fixpoint_is_skipped_not_an_error(self, store):
        node = MachineFixpoint(lambda oracle: ())
        assert store.put_value(FP, node, True) is False
        assert store.counts()["values"] == 0

    def test_completed_value_answers_any_budget(self, store):
        """Satellite 1: TRUE/FALSE is budget-independent — the row
        carries the wildcard class and replays at every budget."""
        store.put_value(FP, Scan(0), False)
        for max_steps in (1, 500, 10**9, None):
            verdict = store.lookup_verdict(FP, Scan(0), max_steps)
            assert verdict is not None
            assert verdict.status == "false"
            assert verdict.value is False


class TestVerdictBudgetClasses:
    """The satellite-1 regression: UNKNOWN replay compatibility."""

    def unknown(self, steps=501):
        return Verdict.unknown("out_of_fuel", steps=steps)

    def test_replay_at_equal_and_smaller_budgets(self, store):
        assert store.put_verdict(FP, Scan(0), self.unknown(), 500)
        for max_steps in (500, 100, 1):
            verdict = store.lookup_verdict(FP, Scan(0), max_steps)
            assert verdict is not None, max_steps
            assert verdict.is_unknown
            assert verdict.reason == "out_of_fuel"
            assert verdict.steps == 501

    def test_never_replayed_at_larger_budget(self, store):
        """The masking bug this layer must not introduce: a bigger
        budget might complete, so the stored UNKNOWN does not apply."""
        store.put_verdict(FP, Scan(0), self.unknown(), 500)
        assert store.lookup_verdict(FP, Scan(0), 501) is None
        assert store.lookup_verdict(FP, Scan(0), 10_000) is None

    def test_never_replayed_for_unbounded_request(self, store):
        store.put_verdict(FP, Scan(0), self.unknown(), 500)
        assert store.lookup_verdict(FP, Scan(0), None) is None

    def test_transient_reasons_refused(self, store):
        for reason in ("deadline", "cancelled"):
            verdict = Verdict.unknown(reason, steps=7)
            assert store.put_verdict(FP, Scan(0), verdict, 500) is False
        assert store.counts()["verdicts"] == 0

    def test_unbounded_unknown_refused(self, store):
        """An unbounded budget cannot run out of fuel; an "inf"-class
        UNKNOWN row would be contradictory and is refused."""
        assert store.put_verdict(FP, Scan(0), self.unknown(),
                                 None) is False

    def test_known_verdict_stores_its_value(self, store):
        verdict = Verdict.of(True, value=True)
        assert store.put_verdict(FP, Scan(0), verdict, 500)
        assert store.counts()["values"] == 1
        assert store.counts()["verdicts"] == 0
        assert store.lookup_value(FP, Scan(0)) is True

    def test_completed_value_shadows_unknown_rows(self, store):
        """Once any process completes the query, the value wins for
        every budget — stale UNKNOWN rows stop mattering."""
        store.put_verdict(FP, Scan(0), self.unknown(), 500)
        store.put_value(FP, Scan(0), True)
        verdict = store.lookup_verdict(FP, Scan(0), 100)
        assert verdict is not None and verdict.status == "true"

    def test_distinct_classes_coexist(self, store):
        store.put_verdict(FP, Scan(0), self.unknown(501), 500)
        store.put_verdict(FP, Scan(0), self.unknown(2001), 2000)
        assert store.counts()["verdicts"] == 2
        assert store.lookup_verdict(FP, Scan(0), 1000) is not None
        assert store.lookup_verdict(FP, Scan(0), 3000) is None


class TestBulkIngestRows:
    """The pre-encoded insert path the ingest parent uses."""

    def test_value_row_lands_on_the_same_key(self, store):
        plan = Complement(Scan(0))
        store.insert_value_row(
            FP, canonical_plan_text(plan), args_to_json(()),
            '{"k":"bool","v":true}')
        assert store.lookup_value(FP, plan) is True
        row = store._conn.execute(
            "SELECT plan_hash FROM plans").fetchone()
        assert row[0] == plan_hash(plan)      # text↔hash invariant

    def test_verdict_row_replays_under_its_class(self, store):
        plan = Scan(1)
        store.insert_verdict_row(FP, canonical_plan_text(plan),
                                 "500", "out_of_fuel", 501)
        assert store.lookup_verdict(FP, plan, 400) is not None
        assert store.lookup_verdict(FP, plan, 600) is None


class TestOneEncodingPerCall:
    """A lookup or a put encodes its plan once; a lookup is one SELECT
    and a put lands its two rows in one transaction."""

    PLAN = Complement(Scan(0))

    @pytest.fixture
    def encodings(self, monkeypatch):
        """How often the plan under test was encoded (the codec recurses
        into children, so only calls on the root plan count)."""
        from repro.store import codec
        roots = []
        encode = codec.plan_to_json

        def counting(plan):
            roots.append(plan is self.PLAN)
            return encode(plan)

        monkeypatch.setattr(codec, "plan_to_json", counting)
        return roots

    @pytest.fixture
    def statements(self, store):
        seen = []
        store._conn.set_trace_callback(seen.append)
        yield seen
        store._conn.set_trace_callback(None)

    def test_lookup_miss(self, store, encodings, statements):
        assert store.lookup_verdict(FP, self.PLAN, 500) is None
        assert sum(encodings) == 1
        assert len(statements) == 1
        assert statements[0].startswith("SELECT")

    @pytest.mark.parametrize("verdict", [
        Verdict.of(True, value=True),
        Verdict.unknown("out_of_fuel", steps=501)])
    def test_put(self, store, encodings, statements, verdict):
        assert store.put_verdict(FP, self.PLAN, verdict, 500)
        assert sum(encodings) == 1
        assert [s.split(" ")[0] for s in statements] == [
            "BEGIN", "INSERT", "INSERT", "COMMIT"]

    def test_rows_are_unchanged(self, store):
        store.put_value(FP, self.PLAN, True)
        store.put_verdict(FP, self.PLAN,
                          Verdict.unknown("out_of_fuel", steps=501), 500)
        phash = plan_hash(self.PLAN)
        assert store._conn.execute("SELECT * FROM plans").fetchall() == [
            (phash, canonical_plan_text(self.PLAN))]
        assert store._conn.execute(
            "SELECT * FROM results ORDER BY budget_class").fetchall() == [
            (FP, phash, args_to_json(()), ANY_BUDGET, "value", None, None,
             '{"k":"bool","v":true}'),
            (FP, phash, args_to_json(()), "500", "unknown", "out_of_fuel",
             501, None)]


class TestSnapshotAndReload:
    def entries(self):
        return [
            (ResultCache.key(FP, Scan(0)), Value(1, frozenset({(0,)}))),
            (ResultCache.key(FP, FullScan(2),
                             ("contains", (0, 1))), True),
            (ResultCache.key(FP2, Complement(Scan(0))),
             finite_value(1, [(2,)])),
        ]

    def test_round_trip(self, store):
        cache = EngineCache()
        for key, value in self.entries():
            cache.results.put(key, value)
        report = store.snapshot_cache(cache)
        assert report == {"persisted": 3, "skipped": 0}

        fresh = EngineCache()
        assert store.load_results(fresh) == {"loaded": 3, "skipped": 0}
        for key, value in self.entries():
            assert fresh.results.get(key) == value

    def test_machine_fixpoint_entries_are_counted_skipped(self, store):
        cache = EngineCache()
        cache.results.put(
            ResultCache.key(FP, MachineFixpoint(lambda oracle: ())),
            True)
        cache.results.put(ResultCache.key(FP, Scan(0)), True)
        report = store.snapshot_cache(cache)
        assert report == {"persisted": 1, "skipped": 1}

    def test_unknown_rows_are_not_loaded(self, store):
        """UNKNOWN rows answer only through ``lookup_verdict`` (where
        the budget check lives) — never the budget-blind memory cache."""
        store.put_verdict(FP, Scan(0),
                          Verdict.unknown("out_of_fuel", steps=501), 500)
        fresh = EngineCache()
        assert store.load_results(fresh) == {"loaded": 0, "skipped": 0}
        assert len(fresh.results) == 0


class TestCrossConnectionSharing:
    """Two Store objects on one WAL file — the multi-process shape,
    exercised in-process (the cross-process version runs in the CI
    smoke job and the ingest tests)."""

    def test_write_here_read_there(self, tmp_path):
        path = tmp_path / "shared.sqlite"
        with Store(path) as writer, Store(path) as reader:
            writer.put_value(FP, Scan(0), True)
            assert reader.lookup_value(FP, Scan(0)) is True

    def test_concurrent_upserts_converge(self, tmp_path):
        path = tmp_path / "shared.sqlite"
        with Store(path) as a, Store(path) as b:
            a.put_value(FP, Scan(0), True)
            b.put_value(FP, Scan(0), True)
            assert a.counts()["values"] == 1


class TestTruth:
    def test_bool_and_path_values(self):
        assert _truth(True) is True
        assert _truth(Value(1, frozenset({(0,)}))) is True
        assert _truth(Value(1, frozenset())) is False

    def test_fcf_rank0_honours_cofiniteness(self):
        assert _truth(finite_value(0, [()])) is True
        assert _truth(finite_value(0, [])) is False
        assert _truth(cofinite_value(0, [()])) is False
        assert _truth(cofinite_value(1, [(0,)])) is True

    def test_any_budget_constant(self):
        assert ANY_BUDGET == "*"
