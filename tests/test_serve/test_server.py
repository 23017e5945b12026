"""End-to-end HTTP tests: a real server on an ephemeral port.

One module-scoped server carries the read-only tests; quota tests that
*consume* tenant state start their own short-lived servers so the
shared fixture stays deterministic.
"""

import http.client
import json
import multiprocessing

import pytest

from repro.engine import Engine, lower_all
from repro.logic import parse
from repro.serve import (
    ServeClient,
    ServeError,
    config_from_dict,
    start_in_thread,
)
from repro.symmetric import rado_hsdb


@pytest.fixture(scope="module")
def server():
    with start_in_thread(port=0) as handle:
        yield handle


@pytest.fixture(scope="module")
def client(server):
    return ServeClient(server.base_url)


class TestBasics:
    def test_healthz(self, client):
        body = client.healthz()
        assert body["ok"] is True
        assert body["uptime_s"] >= 0

    def test_catalog(self, client):
        body = client.catalog()
        assert set(body["databases"]) == {
            "clique", "rado", "triangles", "k3k2", "pair"}
        assert body["frontends"] == ["fo", "qlhs", "gmhs", "qlf"]
        assert body["default_tenant"] == "default"

    def test_eval_each_frontend(self, client):
        cases = [("rado", "fo", "exists x. exists y. R1(x, y)", "true"),
                 ("rado", "gmhs", "exists x. R1(x, x)", "false"),
                 ("rado", "qlhs", "R1 & !R1", "false"),
                 ("pair", "qlf", "R1 & swap(R1)", "true")]
        for database, frontend, query, expected in cases:
            body = client.eval(database, query, frontend=frontend)
            assert body["status"] == expected, (frontend, body)
            assert body["database"] == database
            assert body["tenant"] == "default"
            assert body["wall_us"] >= 0

    def test_http_verdicts_match_in_process_engine(self, client):
        """The acceptance criterion: served verdicts agree bit-for-bit
        with ``Engine.eval`` on the same database."""
        queries = ["exists x. R1(x, x)",
                   "forall x. exists y. R1(x, y)",
                   "exists x. forall y. R1(x, y)",
                   "forall x. forall y. R1(x, y)"]
        engine = Engine(rado_hsdb())
        for text in queries:
            plan = lower_all(parse(text), engine.signature)["fo"]
            local = engine.eval(plan)
            served = client.eval("rado", text)
            assert served["status"] == local.status, text
            assert served["reason"] == local.reason, text


class TestEvalBatch:
    def test_streams_each_member_then_summary(self, client):
        lines = list(client.eval_batch(
            "rado", ["exists x. R1(x, x)", "forall x. exists y. R1(x, y)"]))
        members, summary = lines[:-1], lines[-1]
        assert [m["index"] for m in members] == [0, 1]
        assert [m["status"] for m in members] == ["false", "true"]
        assert summary == {"done": True, "members": 2, "tenant": "default"}

    def test_empty_batch(self, client):
        lines = list(client.eval_batch("rado", []))
        assert lines == [{"done": True, "members": 0, "tenant": "default"}]

    def test_duplicate_plans(self, client):
        """The same query N times: N identical verdict lines (the
        result cache makes the repeats warm, never changes answers)."""
        lines = list(client.eval_batch(
            "rado", ["exists x. R1(x, x)"] * 4))
        members = lines[:-1]
        assert len(members) == 4
        assert {m["status"] for m in members} == {"false"}
        assert lines[-1]["members"] == 4

    def test_member_compile_error_does_not_kill_batch(self, client):
        lines = list(client.eval_batch(
            "rado", ["((", "exists x. R1(x, x)"]))
        assert lines[0]["error"] == "parse_error"
        assert lines[1]["status"] == "false"
        assert lines[-1]["done"] is True

    def test_member_arity_error_does_not_kill_batch(self, client):
        lines = list(client.eval_batch(
            "rado", ["exists x. R1(x, x)", "exists x. R1(x)",
                     "forall x. exists y. R1(x, y)"]))
        assert [line.get("index") for line in lines[:-1]] == [0, 1, 2]
        assert lines[1]["error"] == "type_error"
        assert lines[2]["status"] == "true"
        assert lines[-1] == {"done": True, "members": 3,
                             "tenant": "default"}


class TestErrorTaxonomy:
    def test_unknown_database_404(self, client):
        with pytest.raises(ServeError) as exc:
            client.eval("nope", "exists x. R1(x, x)")
        assert exc.value.status == 404
        assert exc.value.payload["error"] == "unknown_database"

    def test_parse_error_400(self, client):
        with pytest.raises(ServeError) as exc:
            client.eval("rado", "((")
        assert exc.value.status == 400
        assert exc.value.payload["error"] == "parse_error"

    def test_arity_error_400(self, client):
        with pytest.raises(ServeError) as exc:
            client.eval("rado", "exists x. R1(x)")
        assert exc.value.status == 400
        assert exc.value.payload["error"] == "type_error"

    def test_unknown_frontend_400(self, client):
        with pytest.raises(ServeError) as exc:
            client.eval("rado", "x", frontend="sql")
        assert exc.value.status == 400
        assert exc.value.payload["error"] == "unknown_frontend"

    def test_unknown_tenant_403(self, client):
        with pytest.raises(ServeError) as exc:
            client.eval("rado", "exists x. R1(x, x)", tenant="ghost")
        assert exc.value.status == 403
        assert exc.value.payload["error"] == "unknown_tenant"

    def test_unknown_path_404(self, client):
        with pytest.raises(ServeError) as exc:
            client._request("GET", "/nope")
        assert exc.value.status == 404

    def test_wrong_method_405(self, client):
        with pytest.raises(ServeError) as exc:
            client._request("GET", "/eval")
        assert exc.value.status == 405

    def test_malformed_json_400(self, server):
        conn = http.client.HTTPConnection(server.host, server.port,
                                          timeout=30)
        try:
            conn.request("POST", "/eval", body=b"{nope",
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            body = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == 400
        assert body["error"] == "protocol"

    def test_missing_field_400(self, client):
        with pytest.raises(ServeError) as exc:
            client._request("POST", "/eval", {"database": "rado"})
        assert exc.value.status == 400
        assert "query" in exc.value.payload["detail"]


class TestQuotas:
    CONFIG = {
        "databases": {"rado": {"kind": "builtin"}},
        "tenants": {
            "default": {},
            "small": {"max_requests": 3},
            "tiny_steps": {"max_steps": 1},
        },
    }

    def test_429_after_quota_and_tenant_isolation(self):
        """A tenant over quota gets a structured 429; the other tenant
        keeps serving (the acceptance criterion)."""
        with start_in_thread(config_from_dict(self.CONFIG)) as server:
            client = ServeClient(server.base_url)
            for __ in range(3):
                client.eval("rado", "exists x. R1(x, x)", tenant="small")
            with pytest.raises(ServeError) as exc:
                client.eval("rado", "exists x. R1(x, x)", tenant="small")
            assert exc.value.status == 429
            payload = exc.value.payload
            assert payload["error"] == "over_quota"
            assert payload["dimension"] == "requests"
            assert payload["retryable"] is False
            assert payload["tenant"] == "small"
            # The default tenant is unaffected.
            ok = client.eval("rado", "exists x. R1(x, x)")
            assert ok["status"] == "false"
            snapshot = client.stats()["tenants"]
            assert snapshot["small"]["rejected"] == 1
            assert snapshot["default"]["rejected"] == 0

    def test_batch_members_pre_exhausted_budgets_go_unknown(self):
        """Per-request budget exhaustion is NOT a 429: every member of
        the batch runs out of fuel and reports UNKNOWN in a 200."""
        with start_in_thread(config_from_dict(self.CONFIG)) as server:
            client = ServeClient(server.base_url)
            lines = list(client.eval_batch(
                "rado", ["R1 & !R1"] * 3, frontend="qlhs",
                tenant="tiny_steps"))
            members = lines[:-1]
            assert len(members) == 3
            assert {m["status"] for m in members} == {"unknown"}
            assert {m["reason"] for m in members} == {"out_of_fuel"}

    def test_batch_admission_cost_counts_members(self):
        with start_in_thread(config_from_dict(self.CONFIG)) as server:
            client = ServeClient(server.base_url)
            with pytest.raises(ServeError) as exc:
                list(client.eval_batch(
                    "rado", ["exists x. R1(x, x)"] * 4, tenant="small"))
            assert exc.value.status == 429
            assert exc.value.payload["dimension"] == "requests"


class TestObservability:
    def test_stats_shape(self, client):
        client.eval("rado", "exists x. R1(x, x)")
        stats = client.stats()
        assert stats["server"]["requests"] >= 1
        assert "rado" in stats["server"]["built"]
        assert stats["global"]["evaluations"] >= 1
        assert stats["global"]["verdicts"]["false"] >= 1
        assert "results" in stats["global"]["shared_cache"]
        assert stats["databases"]["rado"]["hs"]["evaluations"] >= 1
        assert stats["tenants"]["default"]["admitted"] >= 1

    def test_trace_endpoint_returns_serve_spans(self, client):
        client.eval("rado", "exists x. R1(x, x)")
        records = client.trace(500)
        assert records, "trace endpoint returned nothing"
        names = {r.get("name") for r in records}
        assert "serve.request" in names

    def test_trace_n_must_be_integer(self, client):
        with pytest.raises(ServeError) as exc:
            client.trace("three")
        assert exc.value.status == 400


class TestShardedBatches:
    """``/eval_batch`` is never sharded: ``[server] workers`` sizes only
    the serve thread pool, and every batch runs in-process with the
    same lines and the same tenant charges at any worker count."""

    QUERIES = ["exists x. R1(x, x)",
               "forall x. exists y. R1(x, y)",
               "((",                            # parse error rides along
               "exists x. forall y. R1(x, y)",
               "forall x. forall y. (R1(x, y) -> R1(y, x))"]

    @staticmethod
    def _config(workers):
        from repro.serve import default_config
        spec = default_config().to_dict()
        spec["server"]["workers"] = workers
        return config_from_dict(spec)

    @staticmethod
    def _strip(lines):
        return [{k: v for k, v in line.items() if k != "wall_us"}
                for line in lines]

    def test_bit_for_bit_with_sequential_server(self):
        with start_in_thread(self._config(1)) as seq_server:
            sequential = self._strip(list(ServeClient(
                seq_server.base_url).eval_batch("rado", self.QUERIES)))
        with start_in_thread(self._config(3)) as server:
            client = ServeClient(server.base_url)
            before = set(multiprocessing.active_children())
            threaded = self._strip(list(
                client.eval_batch("rado", self.QUERIES)))
            # A batch runs in the server's own process: it starts no
            # worker process, so none can outlive the server.
            assert set(multiprocessing.active_children()) <= before
            # Warm repeat: replayed from the store/cache, still equal.
            warm = self._strip(list(
                client.eval_batch("rado", self.QUERIES)))
        assert threaded == sequential
        assert warm == sequential
        assert [m["index"] for m in threaded[:-1]] == [0, 1, 2, 3, 4]

    def test_lone_member_charges_the_tenant_budget(self):
        """A diverging member stops at the tenant's step limit and
        charges the tenant the same at every worker count."""
        queries = ["while |Y5| = 0 do { Y6 := !Y6 }", "this is not qlhs"]
        seen = []
        for workers in (1, 2):
            spec = {"databases": {"clique": {"kind": "builtin"}},
                    "tenants": {"default": {"max_steps": 2000}},
                    "server": {"workers": workers}}
            with start_in_thread(config_from_dict(spec)) as server:
                client = ServeClient(server.base_url)
                lines = self._strip(list(client.eval_batch(
                    "clique", queries, frontend="qlhs")))
                used = client.stats()["tenants"]["default"]["steps_used"]
            assert lines[0]["status"] == "unknown"
            assert lines[0]["reason"] == "out_of_fuel"
            assert "error" in lines[1]
            seen.append((lines, used))
        assert seen[0] == seen[1]
        assert 0 < seen[0][1] <= 2000
