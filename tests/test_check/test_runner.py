"""Campaign driver and CLI tests for ``python -m repro check``.

A small clean campaign (report shape, determinism, JSON emission, exit
status), a broken-tree campaign (failures recorded, shrunk within the
acceptance bounds, reproducers emitted), and the CLI flag grammar.
"""

import json
import os
import random

import pytest

from repro.check import oracles
from repro.check.generators import gen_case
from repro.check.runner import format_report, main, replay, run_check


class TestCleanCampaign:
    @pytest.fixture(scope="class")
    def report(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("check") / "report.json"
        return run_check(7, 40, out=str(out), verbose=False), out

    def test_report_shape(self, report):
        report, __ = report
        assert report["seed"] == 7
        assert report["cases_requested"] == 40
        assert report["cases_run"] == 40
        assert report["failures"] == []
        assert sum(report["kinds"].values()) == 40
        assert "differential" in report["summary"]

    def test_json_written_and_loadable(self, report):
        report, out = report
        on_disk = json.loads(out.read_text(encoding="utf-8"))
        assert on_disk == report

    def test_deterministic(self, report):
        report, __ = report
        again = run_check(7, 40, verbose=False)
        for key in ("summary", "kinds", "failures"):
            assert again[key] == report[key]

    def test_format_report_mentions_no_failures(self, report):
        report, __ = report
        text = format_report(report)
        assert "no failures" in text
        assert "seed=7" in text

    def test_budget_truncates_but_never_zero(self):
        report = run_check(7, 40, budget_s=0.0, verbose=False)
        assert report["cases_run"] <= 1


class TestBrokenCampaign:
    def test_failures_shrunk_and_emitted(self, tmp_path, monkeypatch):
        real = oracles.fo_evaluate
        monkeypatch.setattr(oracles, "fo_evaluate",
                            lambda db, f: not real(db, f))
        emit = tmp_path / "reproducers"
        report = run_check(7, 12, emit_dir=str(emit), verbose=False)
        assert report["failures"], "injected bug went unnoticed"
        for entry in report["failures"]:
            assert entry["oracle"] == "differential"
            # the ISSUE acceptance bound for shrunk reproducers
            assert entry["shrunk_tuples"] <= 5
            assert entry["shrunk_query_nodes"] <= 3
            assert os.path.exists(entry["reproducer"])

    def test_replay_counts_failures(self, monkeypatch):
        rng = random.Random(7)
        case = next(c for c in (gen_case(rng, i) for i in range(20))
                    if c.kind == "fo-fcf")
        assert replay(case) == 0
        real = oracles.fo_evaluate
        monkeypatch.setattr(oracles, "fo_evaluate",
                            lambda db, f: not real(db, f))
        assert replay(case) >= 1


class TestShardedCampaign:
    """``workers=N`` fans cases across processes, same report."""

    def test_parity_with_sequential(self):
        sequential = run_check(7, 16, verbose=False)
        sharded = run_check(7, 16, workers=2, verbose=False)
        for key in ("seed", "cases_run", "summary", "kinds",
                    "failures"):
            assert sharded[key] == sequential[key], key
        assert sharded["workers"] == 2
        assert "workers" not in sequential  # sequential reports stay as-is

    def test_workers_one_takes_the_sequential_path(self):
        report = run_check(7, 5, workers=1, verbose=False)
        assert "workers" not in report
        assert report["cases_run"] == 5

    def test_sharded_failures_shrink_in_the_parent(self, tmp_path,
                                                   monkeypatch):
        # An inline pool keeps the worker callable in-process so the
        # injected bug is visible to it; the merge, regeneration,
        # shrinking, and reproducer emission are the real sharded code.
        import repro.engine.shard as shard_mod

        class InlinePool:
            def __init__(self, workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return [fn(task) for task in tasks]

        monkeypatch.setattr(shard_mod, "WorkerPool", InlinePool)
        real = oracles.fo_evaluate
        monkeypatch.setattr(oracles, "fo_evaluate",
                            lambda db, f: not real(db, f))
        emit = tmp_path / "reproducers"
        report = run_check(7, 12, workers=2, emit_dir=str(emit),
                           verbose=False)
        assert report["workers"] == 2
        assert report["failures"], "injected bug went unnoticed"
        sequential = run_check(7, 12, emit_dir=str(tmp_path / "seq"),
                               verbose=False)
        assert ([f["case"] for f in report["failures"]]
                == [f["case"] for f in sequential["failures"]])
        for entry in report["failures"]:
            assert entry["oracle"] == "differential"
            assert entry["shrunk_tuples"] <= 5
            assert os.path.exists(entry["reproducer"])

    def test_cli_workers_flag(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = main(["--seed=7", "--cases=8", "--workers=2",
                     f"--out={out}", "--quiet"])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["workers"] == 2
        assert report["cases_run"] == 8
        capsys.readouterr()


class TestCli:
    def test_main_returns_zero_on_clean_run(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = main(["--seed=7", "--cases=15", f"--out={out}",
                     "--quiet"])
        assert code == 0
        assert json.loads(out.read_text())["cases_run"] == 15
        assert "seed=7" in capsys.readouterr().out

    def test_space_separated_flags(self, tmp_path, capsys):
        code = main(["--seed", "7", "--cases", "5", "--quiet"])
        assert code == 0
        capsys.readouterr()

    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit):
            main(["--bogus=1"])

    def test_missing_value_rejected(self):
        with pytest.raises(SystemExit):
            main(["--seed"])

    @pytest.mark.parametrize("argv", [
        ["--seed=x"], ["--seed", "x"], ["--cases=x"], ["--budget-s=x"],
        ["--steps=x"], ["--workers=two"], ["--stress", "--threads=x"],
        ["--stress", "--ops=x"],
    ])
    def test_non_numeric_value_is_a_usage_error(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert "not a number" in str(exc.value)
        assert "usage: python -m repro check" in str(exc.value)

    def test_module_dispatch(self, capsys):
        """``python -m repro check`` routes to the runner."""
        from repro.__main__ import COMMANDS
        assert COMMANDS["check"](["--seed=7", "--cases=3",
                                  "--quiet"]) == 0
        capsys.readouterr()
