"""Warm ``/eval`` requests answered on the event loop.

A request whose compile-memo entry, prepared plan and completed result
are all memoized is answered on the loop thread: no pool submission, no
store read.  Everything else evaluates on a ``repro-serve`` pool thread
exactly as before.
"""

import threading
import time

import pytest

from repro.check.serve import QUERY_POOL, run_serve_check
from repro.engine import Engine
from repro.engine.verdict import Verdict
from repro.serve import ServeClient, config_from_dict, start_in_thread
from repro.store import Store

WARM = "exists x. R1(x, x)"

#: Diverges on rado: burns any finite step budget.
DIVERGING = "while |Y1| = 0 do { Y2 := !Y2 }"

RADO = {"databases": {"rado": {"kind": "builtin"}}}


def without_wall(body: dict) -> dict:
    return {k: v for k, v in body.items() if k != "wall_us"}


@pytest.fixture
def server():
    with start_in_thread(port=0) as handle:
        yield handle


@pytest.fixture
def submissions(server, monkeypatch):
    """Every callable the server hands to its thread pool."""
    submitted = []
    submit = server.app.pool.submit

    def counting(fn, *args, **kwargs):
        submitted.append(fn)
        return submit(fn, *args, **kwargs)

    monkeypatch.setattr(server.app.pool, "submit", counting)
    return submitted


class TestLoopAnswers:
    def test_warm_eval_submits_nothing_to_the_pool(self, server,
                                                   submissions):
        client = ServeClient(server.base_url)
        cold = client.eval("rado", WARM)
        assert len(submissions) == 1
        warm = client.eval("rado", WARM)
        assert len(submissions) == 1
        assert without_wall(warm) == without_wall(cold)
        assert client.stats()["server"]["answered_on_loop"] == 1

    def test_cold_eval_runs_on_a_pool_thread(self, server, monkeypatch):
        threads = []
        evaluate = Engine.eval

        def recording(self, plan, **kwargs):
            threads.append(threading.current_thread())
            return evaluate(self, plan, **kwargs)

        monkeypatch.setattr(Engine, "eval", recording)
        client = ServeClient(server.base_url)
        client.eval("rado", WARM)
        client.eval("rado", WARM)
        assert len(threads) == 1                 # the warm one never evals
        assert threads[0] is not server._thread  # never the loop thread
        assert threads[0].name.startswith("repro-serve_")

    def test_every_pool_row_answers_the_same_warm(self, server,
                                                  submissions):
        client = ServeClient(server.base_url)
        cold = [client.eval(db, text, frontend=frontend)
                for db, frontend, text in QUERY_POOL]
        submitted = len(submissions)
        warm = [client.eval(db, text, frontend=frontend)
                for db, frontend, text in QUERY_POOL]
        assert len(submissions) == submitted
        assert ([without_wall(b) for b in warm]
                == [without_wall(b) for b in cold])
        stats = client.stats()
        assert stats["server"]["answered_on_loop"] == len(QUERY_POOL)
        # Settled once each: nothing in flight, every verdict counted.
        tenant = stats["tenants"]["default"]
        assert tenant["in_flight"] == 0
        assert sum(tenant["verdicts"].values()) == 2 * len(QUERY_POOL)

    def test_one_request_span_per_request(self, server):
        client = ServeClient(server.base_url)
        client.eval("rado", WARM)
        client.eval("rado", WARM)
        requests = [s for s in server.app.recorder.trace().ordered()
                    if s.name == "serve.request"]
        assert len(requests) == 2
        assert [s.attrs.get("answered") for s in requests] == [None, "loop"]
        assert requests[1].depth == 0

    def test_warm_request_is_not_queued_behind_a_diverging_one(self):
        config = config_from_dict({
            **RADO, "server": {"workers": 1},
            "tenants": {"default": {"max_steps": 400_000}}})
        with start_in_thread(config, port=0) as handle:
            client = ServeClient(handle.base_url)
            client.eval("rado", WARM)
            slow = {}

            def diverge():
                t0 = time.perf_counter()
                slow["body"] = ServeClient(handle.base_url).eval(
                    "rado", DIVERGING, frontend="qlhs")
                slow["s"] = time.perf_counter() - t0

            thread = threading.Thread(target=diverge)
            thread.start()
            time.sleep(0.2)
            t0 = time.perf_counter()
            body = client.eval("rado", WARM)
            warm_s = time.perf_counter() - t0
            thread.join(timeout=120)
            assert not thread.is_alive()
        assert body["status"] == "false"
        assert slow["body"]["status"] == "unknown"
        # The one pool thread is busy for the whole diverging run; at
        # the parent design the warm request queued behind it.
        assert warm_s < slow["s"] / 4, (warm_s, slow["s"])


class TestStoreSkip:
    CONFIG = {**RADO, "tenants": {"default": {"max_steps": 500}}}

    def test_warm_hit_reads_no_store_row(self, tmp_path, monkeypatch):
        lookups = []
        lookup = Store.lookup_verdict

        def counting(self, *args, **kwargs):
            lookups.append(args)
            return lookup(self, *args, **kwargs)

        monkeypatch.setattr(Store, "lookup_verdict", counting)
        with start_in_thread(config_from_dict(self.CONFIG), port=0,
                             store=str(tmp_path / "s.sqlite")) as handle:
            client = ServeClient(handle.base_url)
            cold = client.eval("rado", WARM)
            assert len(lookups) == 1
            warm = client.eval("rado", WARM)
            assert len(lookups) == 1
            assert without_wall(warm) == without_wall(cold)
            stats = client.stats()
        assert stats["server"]["answered_on_loop"] == 1
        assert stats["store"]["replay_hits"] == 0
        assert stats["store"]["write_throughs"] == 1

    def test_stored_unknown_still_replays_from_the_store(self, tmp_path):
        with start_in_thread(config_from_dict(self.CONFIG), port=0,
                             store=str(tmp_path / "s.sqlite")) as handle:
            client = ServeClient(handle.base_url)
            first = client.eval("rado", DIVERGING, frontend="qlhs")
            again = client.eval("rado", DIVERGING, frontend="qlhs")
            stats = client.stats()
        assert (first["status"], first["reason"]) == ("unknown",
                                                      "out_of_fuel")
        assert without_wall(again) == without_wall(first)
        # The result cache keeps no UNKNOWN, so the repeat went to the
        # pool and replayed the budget-classed row.
        assert stats["server"]["answered_on_loop"] == 0
        assert stats["store"]["replay_hits"] == 1


class TestOracleReachesTheLoop:
    def test_a_wrong_warm_answer_is_caught(self, server, monkeypatch):
        cached = Engine.cached_verdict

        def flipped(self, plan):
            verdict = cached(self, plan)
            if verdict is None or not verdict.known:
                return verdict
            return Verdict.of(not verdict.is_true, value=verdict.value)

        monkeypatch.setattr(Engine, "cached_verdict", flipped)
        report = run_serve_check(server.base_url)
        assert report["cases"] == len(QUERY_POOL)
        assert report["agreements"] == 0
        assert {d["pass"] for d in report["disagreements"]} == {"warm"}
        assert len(report["disagreements"]) == len(QUERY_POOL)
