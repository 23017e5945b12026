"""Unit tests for the race-stress oracle (:mod:`repro.check.stress`).

The cheap runs here (small thread/op counts) pin the harness plumbing:
hammer registration, report shape, invariant wiring, campaign looping,
JSON output, and the ``--stress`` CLI dispatch.  The full-size
(≥8 threads × ≥10k ops) campaigns live in the ``@pytest.mark.stress``
suite of ``tests/test_engine/test_concurrency.py`` and the CI stress
job.
"""

import json
import sys

import pytest

from repro.check import stress
from repro.check.runner import main as check_main
from repro.check.stress import (
    HAMMERS,
    format_stress_report,
    hammer_budget,
    hammer_cache,
    hammer_engine,
    hammer_memo,
    hammer_shard,
    hammer_trace,
    run_stress,
)

SMALL = {"threads": 4, "ops": 200}


class TestHammerRegistry:
    def test_all_hammers_registered(self):
        assert set(HAMMERS) == {"budget", "memo", "cache", "trace",
                                "engine", "shard"}
        for fn in HAMMERS.values():
            assert callable(fn)

    def test_defaults_meet_acceptance_floor(self):
        """The documented floor: ≥8 threads × ≥10k ops per hammer."""
        assert stress.DEFAULT_THREADS >= 8
        assert stress.DEFAULT_OPS >= 10_000


class TestIndividualHammers:
    @pytest.mark.parametrize("hammer", [hammer_budget, hammer_memo,
                                        hammer_cache, hammer_trace])
    def test_cheap_hammers_are_clean(self, hammer):
        report = hammer(7, **SMALL)
        assert report["failures"] == []
        assert report["threads"] == SMALL["threads"]
        assert report["ops"] == SMALL["ops"]

    def test_engine_hammer_is_clean(self):
        report = hammer_engine(7, threads=4, ops=40)
        assert report["failures"] == []
        assert report["cache_hits"] + report["cache_misses"] > 0

    def test_budget_hammer_details_are_exact(self):
        report = hammer_budget(3, **SMALL)
        limit = (SMALL["threads"] * SMALL["ops"]) // 2
        assert report["max_steps"] == limit
        assert report["steps"] == limit
        assert report["trips"] == SMALL["threads"] * SMALL["ops"] - limit

    def test_cache_hammer_counters_self_consistent(self):
        report = hammer_cache(5, **SMALL)
        assert report["size"] <= 256
        assert report["hits"] >= 0 and report["misses"] >= 0

    def test_hammer_detects_a_broken_budget(self, monkeypatch):
        """The invariants actually bite: a deliberately racy budget
        (commit-then-check, i.e. the pre-fix shape) must be flagged."""
        class RacyBudget:
            def __init__(self, max_steps):
                self.max_steps = max_steps
                self.steps = 0

            def charge(self, cost=1):
                from repro.errors import OutOfFuel
                self.steps += cost          # committing: overshoots
                if self.steps > self.max_steps:
                    raise OutOfFuel("over", steps=self.steps)

        monkeypatch.setattr(stress, "Budget",
                            lambda max_steps: RacyBudget(max_steps))
        report = hammer_budget(1, threads=8, ops=2000)
        assert report["failures"], "racy budget escaped the hammer"
        assert any("expected exactly" in f or "lost updates" in f
                   for f in report["failures"])

    def test_memo_hammer_detects_a_computing_peek(self, monkeypatch):
        """A peek that falls back to calling the function is flagged,
        though its traffic would count exactly like a call's."""
        real = stress.lru_cached

        def computing(maxsize):
            def decorate(fn):
                memo = real(maxsize)(fn)
                memo.peek = memo
                return memo
            return decorate

        monkeypatch.setattr(stress, "lru_cached", computing)
        report = hammer_memo(1, **SMALL)
        assert any("peeks computed" in f for f in report["failures"])

    def test_switch_interval_restored(self):
        before = sys.getswitchinterval()
        hammer_budget(2, threads=2, ops=50)
        assert sys.getswitchinterval() == before

    def test_shard_hammer_is_clean(self):
        """A quick process-pool round: two threads, one dispatch each,
        through one shared two-worker executor."""
        report = hammer_shard(7, threads=2, ops=1000)
        assert report["failures"] == []
        assert report["workers"] == 2
        assert report["absorbed_steps"] >= 0


class TestRunStress:
    def test_single_round_report_shape(self, tmp_path):
        out = tmp_path / "stress.json"
        report = run_stress(11, threads=2, ops=50, out=str(out))
        assert report["mode"] == "stress"
        assert report["rounds"] == 1
        assert report["failures"] == []
        assert set(report["hammers"]) == set(HAMMERS)
        assert all(n == 1 for n in report["hammers"].values())
        assert json.loads(out.read_text()) == report

    def test_budget_s_loops_rounds(self):
        report = run_stress(0, threads=2, ops=20, budget_s=0.5)
        assert report["rounds"] >= 1
        assert all(n == report["rounds"]
                   for n in report["hammers"].values())

    def test_format_mentions_every_hammer(self):
        report = run_stress(1, threads=2, ops=20)
        text = format_stress_report(report)
        for name in HAMMERS:
            assert name in text
        assert "no failures" in text

    def test_hammers_filter_selects_subset(self):
        report = run_stress(3, threads=2, ops=50,
                            hammers=("budget", "memo"))
        assert set(report["hammers"]) == {"budget", "memo"}
        assert report["failures"] == []

    def test_hammers_filter_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="unknown hammers"):
            run_stress(3, threads=2, ops=50, hammers=("budget", "bogus"))

    def test_format_lists_failures(self):
        report = {"mode": "stress", "seed": 9, "threads": 8,
                  "ops": 100, "rounds": 1,
                  "hammers": {name: 1 for name in HAMMERS},
                  "elapsed_s": 0.1,
                  "failures": [{"hammer": "cache", "seed": 9,
                                "detail": "size exploded"}]}
        text = format_stress_report(report)
        assert "FAILURES: 1" in text
        assert "size exploded" in text


class TestCli:
    def test_stress_flag_dispatches(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        status = check_main(["--stress", "--seed=5", "--threads=2",
                             "--ops=20", f"--out={out}", "--quiet"])
        assert status == 0
        captured = capsys.readouterr().out
        assert "check --stress" in captured
        report = json.loads(out.read_text())
        assert report["mode"] == "stress"
        assert report["seed"] == 5
        assert report["threads"] == 2
        assert report["ops"] == 20

    def test_stress_flag_space_separated_values(self, capsys):
        status = check_main(["--stress", "--seed", "3", "--threads",
                             "2", "--ops", "20", "--quiet"])
        assert status == 0
        assert "seed=3" in capsys.readouterr().out

    def test_hammers_flag_restricts_the_round(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        status = check_main(["--stress", "--seed=5", "--threads=2",
                             "--ops=20", "--hammers=budget,trace",
                             f"--out={out}", "--quiet"])
        assert status == 0
        capsys.readouterr()
        report = json.loads(out.read_text())
        assert set(report["hammers"]) == {"budget", "trace"}

    def test_exit_status_reflects_failures(self, monkeypatch, capsys):
        def broken(report_seed, threads, ops):
            return {"hammer": "budget", "threads": threads, "ops": ops,
                    "failures": ["synthetic breakage"]}

        monkeypatch.setitem(stress.HAMMERS, "budget", broken)
        status = check_main(["--stress", "--threads=2", "--ops=10",
                             "--quiet"])
        assert status == 1
        assert "synthetic breakage" in capsys.readouterr().out
