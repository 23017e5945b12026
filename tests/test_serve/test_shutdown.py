"""``python -m repro serve`` shuts down one way on SIGINT and SIGTERM.

Each run serves two ``/eval`` requests against a fresh store, is sent
the signal, and must exit 0 with its closing cache snapshot written:
the store rows a SIGTERM leaves equal those a SIGINT leaves.
"""

import json
import os
import signal
import sqlite3
import subprocess
import sys

from repro.serve import ServeClient

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))), "src")

CONFIG = {"databases": {"rado": {"kind": "builtin"}}}

QUERIES = ("exists x. exists y. R1(x, y)", "forall x. exists y. R1(x, y)")


def rows(store_path):
    """Every result row of a store, sorted."""
    with sqlite3.connect(store_path) as conn:
        return sorted(conn.execute(
            "SELECT fingerprint, plan_hash, args, budget_class, status,"
            " reason, steps, value FROM results"))


def serve_then_signal(tmp_path, signum):
    """``(exit code, store rows)`` of one server stopped by ``signum``."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIG))
    store = tmp_path / f"{signum.name}.sqlite"
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", f"--config={config}",
         "--host=127.0.0.1", "--port=0", f"--store={store}"],
        stdout=subprocess.PIPE, text=True, env=env)
    try:
        # "repro serve: listening on http://127.0.0.1:PORT (...)"
        url = proc.stdout.readline().split()[4]
        client = ServeClient(url)
        for text in QUERIES:
            assert client.eval("rado", text)["status"] == "true"
        proc.send_signal(signum)
        out, __ = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    return proc.returncode, out, rows(store)


def test_sigterm_closes_like_sigint(tmp_path):
    code, out, rows_int = serve_then_signal(tmp_path, signal.SIGINT)
    assert code == 0
    assert out.endswith("repro serve: shutting down\n")
    assert len(rows_int) > len(QUERIES)  # the closing snapshot ran
    code, out, rows_term = serve_then_signal(tmp_path, signal.SIGTERM)
    assert code == 0
    assert out.endswith("repro serve: shutting down\n")
    assert rows_term == rows_int
