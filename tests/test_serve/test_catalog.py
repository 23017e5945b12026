"""The catalog: lazy construction, engine sharing, compile routing."""

import json

import pytest

from repro.engine import EngineCache
from repro.serve.catalog import FRONTENDS, Catalog, QueryError
from repro.serve.config import config_from_dict, default_config


@pytest.fixture()
def catalog():
    return Catalog(default_config())


class TestLaziness:
    def test_nothing_built_up_front(self, catalog):
        assert catalog.built() == []

    def test_engine_is_memoized(self, catalog):
        first = catalog.engine("rado")
        assert catalog.engine("rado") is first
        assert catalog.built() == ["rado"]

    def test_fcf_entry_builds_both_views(self, catalog):
        hs = catalog.engine("pair", "hs")
        fcf = catalog.engine("pair", "fcf")
        assert hs is not fcf
        assert catalog.built() == ["pair"]

    def test_builtin_has_no_fcf_view(self, catalog):
        with pytest.raises(QueryError) as exc:
            catalog.engine("rado", "fcf")
        assert exc.value.code == "frontend_unavailable"

    def test_unknown_database(self, catalog):
        with pytest.raises(QueryError) as exc:
            catalog.engine("nope")
        assert exc.value.code == "unknown_database"


class TestSharedCache:
    def test_all_engines_share_one_cache(self, catalog):
        assert catalog.engine("rado").cache is catalog.engine("clique").cache
        assert catalog.engine("pair", "fcf").cache is catalog.cache

    def test_externally_supplied_cache_is_adopted(self):
        cache = EngineCache()
        catalog = Catalog(default_config(), cache=cache)
        assert catalog.engine("rado").cache is cache

    def test_fingerprint_equal_databases_share_results(self):
        """Two catalog entries describing the same database hit the
        same result-cache entries (fingerprint-keyed sharing)."""
        config = config_from_dict({"databases": {
            "a": {"kind": "builtin", "source": "rado"},
            "b": {"kind": "builtin", "source": "rado"},
        }})
        catalog = Catalog(config)
        engine_a, plan = catalog.compile("a", "fo", "exists x. R1(x, x)")
        engine_b, plan_b = catalog.compile("b", "fo", "exists x. R1(x, x)")
        cold = engine_a.eval(plan)
        warm = engine_b.eval(plan_b)
        assert cold.status == warm.status
        assert catalog.cache.results.stats().hits >= 1


class TestCompile:
    def test_every_frontend_compiles(self, catalog):
        queries = {"fo": "exists x. R1(x, x)",
                   "gmhs": "exists x. R1(x, x)",
                   "qlhs": "R1 & !R1"}
        for frontend, text in queries.items():
            engine, plan = catalog.compile("rado", frontend, text)
            assert engine.eval(plan).status in ("true", "false")
        engine, plan = catalog.compile("pair", "qlf", "R1 & swap(R1)")
        assert engine.eval(plan).status in ("true", "false")

    def test_compile_is_memoized(self, catalog):
        first = catalog.compile("rado", "fo", "exists x. R1(x, x)")
        assert catalog.compile("rado", "fo", "exists x. R1(x, x)") is first

    def test_unknown_frontend(self, catalog):
        with pytest.raises(QueryError) as exc:
            catalog.compile("rado", "sql", "select 1")
        assert exc.value.code == "unknown_frontend"
        assert "sql" in exc.value.detail

    def test_parse_error(self, catalog):
        with pytest.raises(QueryError) as exc:
            catalog.compile("rado", "fo", "((")
        assert exc.value.code == "parse_error"

    def test_type_error(self, catalog):
        with pytest.raises(QueryError) as exc:
            catalog.compile("rado", "fo", "exists x. R9(x, x)")
        assert exc.value.code == "type_error"

    def test_arity_error_is_a_type_error(self, catalog):
        for frontend in ("fo", "gmhs"):
            with pytest.raises(QueryError) as exc:
                catalog.compile("rado", frontend, "exists x. R1(x)")
            assert exc.value.code == "type_error"
            assert "arity" in exc.value.detail

    def test_fo_request_lowers_only_its_route(self, catalog, monkeypatch):
        """The macro compilation feeds only the qlhs route, so an fo
        request never runs it."""
        from repro.engine import frontends

        def refuse(*args):
            raise AssertionError("compile_formula ran for an fo request")

        monkeypatch.setattr(frontends, "compile_formula", refuse)
        engine, plan = catalog.compile("rado", "fo", "exists x. R1(x, x)")
        assert engine.eval(plan).status == "false"

    def test_every_route_checks_ranks(self, catalog):
        for frontend, database in (("qlhs", "rado"), ("qlf", "pair")):
            with pytest.raises(QueryError) as exc:
                catalog.compile(database, frontend, "R1 & down(R1)")
            assert exc.value.code == "type_error"

    def test_qlf_needs_fcf_database(self, catalog):
        with pytest.raises(QueryError) as exc:
            catalog.compile("rado", "qlf", "R1")
        assert exc.value.code == "frontend_unavailable"

    def test_qlf_rejects_intrinsics(self, catalog):
        with pytest.raises(QueryError) as exc:
            catalog.compile("pair", "qlf", "prod(R1, R2)")
        assert exc.value.code == "frontend_unavailable"

    def test_frontend_tuple_is_stable(self):
        assert FRONTENDS == ("fo", "qlhs", "gmhs", "qlf")


class TestKinds:
    def test_finite_kind_serves_fo(self):
        config = config_from_dict({"databases": {"tiny": {
            "kind": "finite", "domain": 3,
            "relations": [{"rank": 2, "tuples": [[0, 1], [1, 2]]}]}}})
        catalog = Catalog(config)
        engine, plan = catalog.compile("tiny", "fo",
                                       "exists x. exists y. R1(x, y)")
        assert engine.eval(plan).status == "true"


class TestStats:
    def test_stats_are_json_safe_and_grow(self, catalog):
        engine, plan = catalog.compile("rado", "fo", "exists x. R1(x, x)")
        engine.eval(plan)
        stats = catalog.stats()
        json.dumps(stats)                   # must be wire-safe
        assert stats["databases"]["rado"]["hs"]["evaluations"] == 1
        assert "plans" in stats["shared_cache"]
