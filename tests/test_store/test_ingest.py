"""The bulk ingestion pipeline: manifest → workers → one sqlite store."""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.core import finite_database
from repro.engine.cache import EngineCache
from repro.engine.fingerprint import fingerprint_hsdb
from repro.fcf import FcfDatabase, cofinite_value, finite_value
from repro.store import Store, ingest_manifest, load_manifest
from repro.store.ingest import ManifestError, default_warm_queries
from repro.symmetric import from_finite_database

ROOT = Path(__file__).resolve().parents[2]

TRIANGLE = {"kind": "finite", "domain": 3,
            "relations": [{"rank": 2,
                           "tuples": [[0, 1], [1, 2], [2, 0]]}]}

#: The canonical diverging QLhs program — burns any finite step budget.
DIVERGING = "while |Y1| = 0 do { Y2 := !Y2 }"


def write_manifest(tmp_path, data):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(data))
    return path


class TestLoadManifest:
    def test_minimal_manifest(self, tmp_path):
        path = write_manifest(tmp_path, {"databases": {"t": TRIANGLE}})
        manifest = load_manifest(path)
        assert set(manifest) == {"databases", "warm"}
        assert manifest["warm"] == []

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("{nope")
        with pytest.raises(ManifestError):
            load_manifest(path)

    def test_unreadable_file_rejected(self, tmp_path):
        with pytest.raises(ManifestError, match="cannot read"):
            load_manifest(tmp_path / "missing.json")
        with pytest.raises(ManifestError, match="cannot read"):
            load_manifest(tmp_path)             # a directory

    def test_missing_or_empty_databases_rejected(self, tmp_path):
        for data in ({}, {"databases": {}}, {"databases": "x"}, [1]):
            with pytest.raises(ManifestError):
                load_manifest(write_manifest(tmp_path, data))

    def test_warm_must_be_a_list_of_texted_entries(self, tmp_path):
        with pytest.raises(ManifestError):
            load_manifest(write_manifest(
                tmp_path, {"databases": {"t": TRIANGLE}, "warm": "x"}))
        with pytest.raises(ManifestError):
            load_manifest(write_manifest(
                tmp_path,
                {"databases": {"t": TRIANGLE},
                 "warm": [{"frontend": "fo"}]}))


class TestDefaultWarmQueries:
    def test_one_existential_per_relation_plus_one_universal(self):
        queries = default_warm_queries((2, 1))
        assert len(queries) == 3
        assert all(frontend == "fo" for frontend, __ in queries)
        texts = [text for __, text in queries]
        assert texts[0] == "exists x1. exists x2. R1(x1, x2)"
        assert texts[1] == "forall x1. forall x2. R1(x1, x2)"
        assert texts[2] == "exists x1. R2(x1)"

    def test_nullary_relations_are_skipped(self):
        assert default_warm_queries((0,)) == []


class TestIngestSequential:
    def test_finite_database_lands_warm(self, tmp_path):
        store_path = tmp_path / "memo.sqlite"
        manifest = {"databases": {"tri": TRIANGLE}, "warm": []}
        report = ingest_manifest(manifest, store_path)

        assert report.databases == ["tri"]
        assert report.queries == 2            # defaults: exists + forall
        assert report.values > 0
        assert report.store_counts["databases"] == 1
        assert report.store_counts["values"] == report.values
        assert report.stats.evaluations >= report.queries

        with Store(store_path) as store:
            rows = store.databases()
            assert rows[0]["name"] == "tri"
            assert rows[0]["kind"] == "finite"
            # The reload hits: every persisted value comes back.
            fresh = EngineCache()
            loaded = store.load_results(fresh)
            assert loaded["loaded"] == report.values

    def test_finite_database_gets_a_snapshot(self, tmp_path):
        store_path = tmp_path / "memo.sqlite"
        ingest_manifest({"databases": {"tri": TRIANGLE}, "warm": []},
                        store_path)
        with Store(store_path) as store:
            snap = store._conn.execute(
                "SELECT snapshot FROM databases").fetchone()[0]
        assert snap is not None
        from repro.symmetric import restore
        restored = restore(json.loads(snap))
        assert restored.signature == (2,)

    def test_manifest_warm_queries_override_defaults(self, tmp_path):
        store_path = tmp_path / "memo.sqlite"
        manifest = {
            "databases": {"tri": TRIANGLE},
            "warm": [{"database": "tri", "frontend": "fo",
                      "text": "exists x1. R1(x1, x1)"}],
        }
        report = ingest_manifest(manifest, store_path)
        assert report.queries == 1

    def test_wildcard_warm_applies_to_every_database(self, tmp_path):
        store_path = tmp_path / "memo.sqlite"
        manifest = {
            "databases": {"a": TRIANGLE, "b": TRIANGLE},
            "warm": [{"frontend": "fo",
                      "text": "exists x1. R1(x1, x1)"}],
        }
        report = ingest_manifest(manifest, store_path)
        assert report.queries == 2
        assert sorted(report.databases) == ["a", "b"]
        # The fingerprint covers the database *name* as well as the
        # structure, so same-shape entries stay distinct rows.
        assert report.store_counts["databases"] == 2

    def test_diverging_query_persists_a_classed_unknown(self, tmp_path):
        """The UNKNOWN path end-to-end: a diverging warm query trips
        the ingest budget and lands as a replayable classed row."""
        store_path = tmp_path / "memo.sqlite"
        manifest = {
            "databases": {"tri": TRIANGLE},
            "warm": [{"frontend": "qlhs", "text": DIVERGING}],
        }
        report = ingest_manifest(manifest, store_path,
                                 budget_steps=500)
        assert report.verdicts == 1
        assert report.store_counts["verdicts"] == 1

        # Replay honours the satellite-1 budget-class rule.
        from repro.serve.catalog import Catalog
        from repro.serve.config import config_from_dict
        catalog = Catalog(config_from_dict(
            {"databases": {"tri": TRIANGLE}}), cache=EngineCache())
        engine, plan = catalog.compile("tri", "qlhs", DIVERGING)
        prepared = engine.prepare(plan)
        with Store(store_path) as store:
            replay = store.lookup_verdict(engine.fingerprint, prepared,
                                          500)
            assert replay is not None
            assert replay.reason == "out_of_fuel"
            assert store.lookup_verdict(engine.fingerprint, prepared,
                                        10_000) is None
            assert store.lookup_verdict(engine.fingerprint, prepared,
                                        None) is None

    def test_builtin_database_ingests_by_source(self, tmp_path):
        store_path = tmp_path / "memo.sqlite"
        manifest = {"databases": {
            "tri": {"kind": "builtin", "source": "triangles"}}}
        report = ingest_manifest(manifest, store_path)
        assert report.store_counts["databases"] == 1
        with Store(store_path) as store:
            assert store.databases()[0]["kind"] == "builtin"
            # Builtins carry no snapshot (their trees are lazy).
            snap = store._conn.execute(
                "SELECT snapshot FROM databases").fetchone()[0]
            assert snap is None


class TestIngestWorkers:
    def test_process_pool_agrees_with_sequential(self, tmp_path):
        """Two workers, two databases: same rows as the inline path —
        the parent is the sole sqlite writer either way."""
        manifest = {
            "databases": {
                "tri": TRIANGLE,
                "rado": {"kind": "builtin", "source": "rado"},
            },
            "warm": [{"frontend": "fo",
                      "text": "exists x1. R1(x1, x1)"}],
        }
        seq = ingest_manifest(manifest, tmp_path / "seq.sqlite")
        par = ingest_manifest(manifest, tmp_path / "par.sqlite",
                              workers=2)
        assert sorted(par.databases) == sorted(seq.databases)
        assert par.values == seq.values
        assert par.verdicts == seq.verdicts
        with Store(tmp_path / "seq.sqlite") as a, \
                Store(tmp_path / "par.sqlite") as b:
            assert a.counts() == b.counts()


def load_store_smoke():
    """Import ``tools/store_smoke.py`` (a script, not a package) for the
    20-database manifest that CI's store-smoke job ingests."""
    spec = importlib.util.spec_from_file_location(
        "store_smoke", ROOT / "tools" / "store_smoke.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: Fingerprints of the store-smoke manifest's databases as stores
#: written by the n!-permutation automorphism scan recorded them.
STORE_SMOKE_FINGERPRINTS = {
    "rado":
        "faff09acd9a439de2da3b6dcd4ad985aa32ca7b4e6a23d5e3376fa2d67eeba7a",
    "clique":
        "d8937c2e79766a7323e17f9bd31d531cfeb17ac313e99d58bc5019910b0ea8e5",
    "triangles":
        "7b13e06d7160b63371bd672058a79ae1c60bf36da5bb2332ed29edf762fd66f4",
    "k3k2":
        "a60fcd93373e2beca61b75a3679b7902475762926da3b2c079cc7ff6ed87d298",
    "cycle3":
        "582507cf8b4861c6d3f135ab8b751539dc56d5e7dfd34a3ab92cd207cb17f294",
    "cycle4":
        "5bf2672b2d0326f496125a8b1bdcd8daa8429115e752c8bbb4482cb20560129e",
    "cycle5":
        "d0f61d7d8865fc9224a32c45816e781b4bb7dca4fc84384a90714d85d5bdaaca",
    "cycle6":
        "d24cf6a75551c69d8c2b739c6c319634ab343328a9c803da30fcf51be3f8a5dd",
    "cycle7":
        "d9d456d8c1c3bf42b59cda6dcec792da841b502c217a2e63bfef014763149f4c",
    "cycle8":
        "0e90df97aa3a52e3282cf47bbd213b11f43d79565ba2bd9228eded1e6c6045c7",
    "cycle9":
        "23cf6eb1d77957db21d9d424ef1054d86d34c41d054bbabc2c8e0904bb83e605",
    "cycle10":
        "0e3ed55b5f3e63f02a6482019ae9facc76207960a16a0945539362ca82279e52",
    "fcf1":
        "f1175d0c223c0decb063501f85c5b6f4a8287fd3c85ec9d72bf4c7c5ac65c97b",
    "fcf2":
        "5fd0bd05c0860dcad5880417801bd784615a9dbaad20611c7bbaab8e4e50dca4",
    "fcf3":
        "bf9b06061eeabfa04480b8ca14f2a75a40c2dee2132bfe95653c9b90c1c6c0a6",
    "fcf4":
        "3bd64ff3f0eefe72597d91844cce5614580d0eb07bb46d5c09958881db287a70",
    "fcf5":
        "afea7933be399560c0b5585e12866234fef071cbffe3f397e9934d9c6d663574",
    "fcf6":
        "e00e8a6d301990a07332b8e6a6b473ce440456cbba19aa80426ad4d4df4daad0",
    "fcf7":
        "164fc620274d68e239b73322b8e487515ca6e509ff89f9b32a5cadc7485efaac",
    "fcf8":
        "6bbee1406cbdb35e0a9c595dca6a3cc9ac86ca60c2f4497a665642cb59b9b729",
}


class TestExistingStoresStayValid:
    """The backtracking automorphism search builds the same trees, so
    rows already stored under these fingerprints keep replaying."""

    def test_cycle10_build(self):
        entry = load_store_smoke().cycle_entry(10)
        finite = finite_database(
            [(r["rank"], [tuple(t) for t in r["tuples"]])
             for r in entry["relations"]],
            range(entry["domain"]), name="cycle10")
        hs = from_finite_database(finite, name="cycle10")
        assert [len(hs.tree.level(n)) for n in range(3)] == [1, 2, 14]
        assert fingerprint_hsdb(hs) == STORE_SMOKE_FINGERPRINTS["cycle10"]

    def test_fcf8_build(self):
        entry = load_store_smoke().fcf_entry(8)
        values = [
            (cofinite_value if r.get("cofinite") else finite_value)(
                r["rank"], [tuple(t) for t in r["tuples"]])
            for r in entry["relations"]]
        hs = FcfDatabase(values, name="fcf8").to_hsdb()
        assert [len(hs.tree.level(n)) for n in range(3)] == [1, 4, 18]
        assert fingerprint_hsdb(hs) == STORE_SMOKE_FINGERPRINTS["fcf8"]

    def test_manifest_ingest_keeps_every_fingerprint(self, tmp_path):
        smoke = load_store_smoke()
        store_path = tmp_path / "smoke.sqlite"
        ingest_manifest(smoke.build_manifest(), store_path, workers=1,
                        budget_steps=smoke.BUDGET_STEPS)
        with Store(store_path) as store:
            stored = {row["name"]: row["fingerprint"]
                      for row in store.databases()}
        assert stored == STORE_SMOKE_FINGERPRINTS
