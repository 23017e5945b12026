"""End-to-end coverage for every ``python -m repro`` subcommand.

Complements ``tests/test_integration/test_cli.py`` (which pins the
historical commands' output) with the new ``engine`` subcommand and a
subprocess smoke test proving the module entry point works outside the
test process.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.__main__ import main

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def run_module(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True, text=True, env=env, timeout=120)


class TestCoreCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "recdb" in out
        assert "engine" in out  # new subpackage is advertised

    def test_classes(self, capsys):
        assert main(["classes", "2,1", "2"]) == 0
        assert "68 classes" in capsys.readouterr().out

    def test_tree(self, capsys):
        assert main(["tree", "k3k2", "2"]) == 0
        assert "T^2" in capsys.readouterr().out

    def test_eval(self, capsys):
        assert main(["eval", "clique",
                     "forall x. exists y. R1(x, y)"]) == 0
        assert "True" in capsys.readouterr().out


class TestEngineCommand:
    def test_basic_answer_and_fingerprint(self, capsys):
        assert main(["engine", "rado",
                     "forall x. exists y. R1(x, y)"]) == 0
        out = capsys.readouterr().out
        assert "rado |= forall x. exists y. R1(x, y)  ->  True" in out
        assert "fingerprint: " in out

    def test_agrees_with_eval_command(self, capsys):
        sentence = "exists x. R1(x, x)"
        main(["eval", "clique", sentence])
        via_eval = capsys.readouterr().out
        main(["engine", "clique", sentence])
        via_engine = capsys.readouterr().out
        assert ("True" in via_eval) == ("True" in via_engine)

    def test_stats_flag_prints_snapshot(self, capsys):
        assert main(["engine", "k3k2", "exists x. R1(x, x)",
                     "--stats"]) == 0
        out = capsys.readouterr().out
        assert "EngineStats" in out
        assert "oracle questions" in out
        assert "result cache" in out

    def test_repeat_warms_the_cache(self, capsys):
        assert main(["engine", "k3k2", "exists x. R1(x, x)",
                     "--repeat=20", "--stats"]) == 0
        out = capsys.readouterr().out
        # 19 warm re-evaluations must be cache hits, visible as a
        # non-trivial hit rate in the printed snapshot.
        assert "result cache" in out
        assert "hits" in out

    def test_usage_errors(self):
        with pytest.raises(SystemExit):
            main(["engine", "rado"])  # missing sentence
        with pytest.raises(SystemExit):
            main(["engine", "rado", "exists x. R1(x, x)",
                  "--repeat", "3"])  # space-separated form
        with pytest.raises(SystemExit):
            main(["engine", "rado", "exists x. R1(x, x)",
                  "--repeat=0"])
        with pytest.raises(SystemExit):
            main(["engine", "rado", "exists x. R1(x, x)",
                  "--bogus"])

    def test_unknown_database(self):
        with pytest.raises(SystemExit):
            main(["engine", "petersen", "exists x. R1(x, x)"])


class TestVersionAndUsage:
    def test_version_flag(self, capsys):
        from repro import __version__
        assert main(["--version"]) == 0
        assert capsys.readouterr().out.strip() == f"recdb {__version__}"

    def test_short_version_flag(self, capsys):
        assert main(["-V"]) == 0
        assert "recdb" in capsys.readouterr().out

    def test_unknown_command_prints_usage_to_stderr(self, capsys):
        assert main(["frobnicate"]) == 2
        err = capsys.readouterr().err
        assert "unknown command 'frobnicate'" in err
        assert "usage: python -m repro" in err
        assert "serve" in err          # the command list is enumerated


class TestServeCommand:
    def test_print_config_emits_valid_json(self, capsys):
        from repro.serve import config_from_dict, default_config
        assert main(["serve", "--print-config"]) == 0
        printed = json.loads(capsys.readouterr().out)
        # sort_keys reorders the tables; compare order-insensitively.
        assert config_from_dict(printed).to_dict() == \
            default_config().to_dict()

    def test_print_config_respects_config_file(self, capsys, tmp_path):
        path = tmp_path / "serve.json"
        path.write_text(json.dumps(
            {"databases": {"rado": {"kind": "builtin"}},
             "tenants": {"default": {"max_steps": 777}}}))
        assert main(["serve", f"--config={path}", "--print-config"]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["tenants"]["default"]["max_steps"] == 777

    def test_usage_error_on_unknown_flag(self):
        with pytest.raises(SystemExit):
            main(["serve", "--bogus"])


class TestNonNumericArguments:
    """A number that does not parse ends the command with its usage
    line (``SystemExit``), not with a ``ValueError`` traceback."""

    @pytest.mark.parametrize("argv", [
        ["ingest", "m.json", "--store=s.sqlite", "--workers=two"],
        ["ingest", "m.json", "--store=s.sqlite", "--budget-steps=x"],
        ["engine", "rado", "exists x. R1(x, x)", "--repeat=x"],
        ["serve", "--port=x"],
        ["tree", "rado", "x"],
        ["classes", "2,x", "2"],
    ], ids=lambda argv: " ".join(argv[:1] + argv[-1:]))
    def test_usage_error(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        message = str(exc.value)
        assert "not a number" in message
        assert f"usage: python -m repro {argv[0]}" in message

    def test_unreadable_manifest_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["ingest", str(tmp_path / "missing.json"),
                  f"--store={tmp_path / 's.sqlite'}"])
        assert "missing.json: cannot read" in str(exc.value)
        assert not (tmp_path / "s.sqlite").exists()


class TestTraceCommand:
    def test_prints_verdict_and_tree(self, capsys):
        assert main(["trace", "rado",
                     "forall x. exists y. R1(x, y)"]) == 0
        out = capsys.readouterr().out
        assert "->  Verdict(TRUE)" in out
        assert "engine.eval" in out
        assert "engine.evaluate" in out

    def test_jsonl_flag_writes_parseable_records(self, capsys, tmp_path):
        path = tmp_path / "trace.jsonl"
        assert main(["trace", "k3k2", "exists x. R1(x, x)",
                     f"--jsonl={path}"]) == 0
        records = [json.loads(line)
                   for line in path.read_text().splitlines()]
        assert records
        assert {r["name"] for r in records} >= {"engine.eval",
                                                "engine.evaluate"}
        assert all(r["status"] == "ok" for r in records)

    def test_usage_errors(self):
        with pytest.raises(SystemExit):
            main(["trace", "rado"])
        with pytest.raises(SystemExit):
            main(["trace", "rado", "exists x. R1(x, x)", "--bogus"])

    def test_global_trace_flag_on_engine_command(self, capsys, tmp_path):
        path = tmp_path / "run.jsonl"
        assert main(["engine", "rado", "forall x. exists y. R1(x, y)",
                     f"--trace={path}"]) == 0
        captured = capsys.readouterr()
        assert "->  True" in captured.out
        assert f"{path}" in captured.err
        records = [json.loads(line)
                   for line in path.read_text().splitlines()]
        assert any(r["name"] == "engine.evaluate" for r in records)


class TestSubprocessSmoke:
    """One real ``python -m repro`` process per command family."""

    def test_info(self):
        proc = run_module("info")
        assert proc.returncode == 0
        assert "recdb" in proc.stdout

    def test_engine_with_stats(self):
        proc = run_module("engine", "k3k2",
                          "forall x. exists y. R1(x, y)",
                          "--repeat=5", "--stats")
        assert proc.returncode == 0
        assert "->  True" in proc.stdout
        assert "EngineStats" in proc.stdout

    def test_unknown_command_exit_code(self):
        proc = run_module("frobnicate")
        assert proc.returncode == 2
        assert "usage: python -m repro" in proc.stderr

    def test_version_flag(self):
        proc = run_module("--version")
        assert proc.returncode == 0
        assert proc.stdout.startswith("recdb ")

    def test_serve_print_config(self):
        proc = run_module("serve", "--print-config")
        assert proc.returncode == 0
        assert "databases" in json.loads(proc.stdout)

    @pytest.mark.parametrize("unbuffered", ["1", ""])
    def test_closed_stdout_exits_without_traceback(self, unbuffered):
        """``python -m repro check ... | head -1``: the reader is gone.
        Unbuffered, the next ``print`` raises; buffered, the exit-time
        flush does.  Either way: a nonzero exit and a quiet stderr."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = dict(os.environ, PYTHONUNBUFFERED=unbuffered)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "info"], stdout=write_end,
                stderr=subprocess.PIPE, text=True, env=env, timeout=120)
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "BrokenPipeError" not in proc.stderr
