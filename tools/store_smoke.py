"""CI smoke driver for the durable store (the ``store-smoke`` job).

End-to-end over real subprocesses:

1. generate a 20-database manifest (builtins + generated finite and
   fcf specs) and bulk-ingest it with
   ``python -m repro ingest --workers=2``;
2. start ``python -m repro serve --store=DB`` on a catalog drawn from
   the same manifest — the server must come up warm *from the ingest*
   (store replay hits on first contact);
3. run the serve-aware differential oracle and a workload, kill the
   server, restart it on the same sqlite file, and require bit-for-bit
   ``(status, reason)`` agreement plus warm-restart stats.

The sqlite file survives at ``--store`` for artifact upload.  Exits
non-zero on any failure, killing the server either way.

Usage::

    PYTHONPATH=src python tools/store_smoke.py [--port=P] [--store=F]
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

from repro.check.serve import run_serve_check  # noqa: E402
from repro.serve import ServeClient  # noqa: E402
from repro.serve.config import config_from_dict  # noqa: E402
from repro.store import Store  # noqa: E402

#: Ingest budget: small enough that the job is quick, large enough
#: that every generated warm query completes.
BUDGET_STEPS = 200_000


def cycle_entry(n: int) -> dict:
    """A directed n-cycle as a ``finite`` database spec."""
    return {"kind": "finite", "domain": n,
            "relations": [{"rank": 2,
                           "tuples": [[i, (i + 1) % n]
                                      for i in range(n)]}]}


def fcf_entry(k: int) -> dict:
    """A small finite/co-finite spec parameterized by ``k``."""
    return {"kind": "fcf",
            "relations": [
                {"rank": 2, "tuples": [[0, k], [k, 0]]},
                {"rank": 1, "tuples": [[j] for j in range(k)],
                 "cofinite": True},
            ]}


def build_manifest() -> dict:
    """The 20-database manifest: 4 builtins + 8 finite + 8 fcf."""
    databases: dict = {
        name: {"kind": "builtin", "source": name}
        for name in ("rado", "clique", "triangles", "k3k2")}
    for n in range(3, 11):
        databases[f"cycle{n}"] = cycle_entry(n)
    for k in range(1, 9):
        databases[f"fcf{k}"] = fcf_entry(k)
    assert len(databases) == 20
    return {"databases": databases}


#: The served catalog: a slice of the manifest, spelled identically so
#: the fingerprints line up with the ingested rows.
def build_config(manifest: dict) -> dict:
    names = ("rado", "triangles", "cycle5", "fcf2")
    return {"databases": {name: manifest["databases"][name]
                          for name in names}}


#: Queries matching the ingest defaults (store hits on first contact)
#: plus extra shapes computed fresh in phase 1 and replayed in phase 2.
WORKLOAD = (
    ("rado", "fo", "exists x1. exists x2. R1(x1, x2)"),
    ("rado", "fo", "forall x1. forall x2. R1(x1, x2)"),
    ("triangles", "fo", "exists x1. exists x2. R1(x1, x2)"),
    ("cycle5", "fo", "exists x1. exists x2. R1(x1, x2)"),
    ("fcf2", "fo", "exists x1. R2(x1)"),
    ("rado", "fo", "forall x. exists y. R1(x, y)"),
    ("rado", "qlhs", "down(R1 & E)"),
    ("triangles", "fo", "exists x. forall y. R1(x, y)"),
)


def wait_healthy(client: ServeClient, deadline_s: float = 30.0) -> None:
    """Poll ``/healthz`` until the server answers or time runs out."""
    start = time.monotonic()
    while True:
        try:
            if client.healthz().get("ok"):
                return
        except Exception:
            pass
        if time.monotonic() - start > deadline_s:
            raise SystemExit("server did not become healthy in time")
        time.sleep(0.2)


def run_ingest(manifest_path: str, store_path: str) -> dict:
    """``python -m repro ingest`` as CI runs it; returns the report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = (os.path.join(REPO, "src") + os.pathsep
                         + env.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "ingest", manifest_path,
         f"--store={store_path}", "--workers=2",
         f"--budget-steps={BUDGET_STEPS}"],
        env=env, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"ingest failed with {proc.returncode}")
    return json.loads(proc.stdout)


def serve_once(config_path: str, store_path: str, port: int,
               config) -> tuple[list, dict]:
    """One server lifetime: differential gate + workload + stats.

    Returns ``(verdicts, store_stats)`` where ``verdicts`` is the
    ordered ``(status, reason)`` list.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = (os.path.join(REPO, "src") + os.pathsep
                         + env.get("PYTHONPATH", ""))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         f"--config={config_path}", "--host=127.0.0.1",
         f"--port={port}", f"--store={store_path}"],
        env=env)
    try:
        base_url = f"http://127.0.0.1:{port}"
        client = ServeClient(base_url)
        wait_healthy(client)
        differential = run_serve_check(base_url, config=config)
        assert differential["disagreements"] == [], \
            differential["disagreements"]
        print(f"  differential: {differential['agreements']}"
              f"/{differential['cases']} agree")
        verdicts = []
        for database, frontend, text in WORKLOAD:
            body = client.eval(database, text, frontend=frontend)
            verdicts.append((body["status"], body["reason"]))
        stats = client.stats()["store"]
        return verdicts, stats
    finally:
        # SIGKILL, not SIGTERM: the restart must come up warm from the
        # rows written through while serving, with no closing snapshot.
        proc.kill()
        proc.wait(timeout=30)


def main(argv: list[str]) -> int:
    """Ingest, serve, kill, re-serve; verify every gate."""
    port, store_path = 8199, "store-smoke.sqlite"
    for arg in argv:
        if arg.startswith("--port="):
            port = int(arg.split("=", 1)[1])
        elif arg.startswith("--store="):
            store_path = arg.split("=", 1)[1]
        else:
            raise SystemExit(
                "usage: python tools/store_smoke.py [--port=P] "
                "[--store=F]")

    manifest = build_manifest()
    config_dict = build_config(manifest)
    with tempfile.NamedTemporaryFile(
            "w", suffix=".json", delete=False) as fh:
        json.dump(manifest, fh)
        manifest_path = fh.name
    with tempfile.NamedTemporaryFile(
            "w", suffix=".json", delete=False) as fh:
        json.dump(config_dict, fh)
        config_path = fh.name

    try:
        print(f"== ingest {len(manifest['databases'])} databases "
              f"(2 workers) ==")
        report = run_ingest(manifest_path, store_path)
        assert len(report["databases"]) == 20, report["databases"]
        assert report["values"] > 0, report
        print(f"  {report['values']} values, {report['verdicts']} "
              f"verdicts, {report['queries']} warm queries")
        with Store(store_path) as store:
            counts = store.counts()
        assert counts["databases"] == 20, counts

        config = config_from_dict(config_dict)
        print("== serve phase 1 (warm from ingest) ==")
        cold, stats1 = serve_once(config_path, store_path, port, config)
        assert stats1["loaded"]["loaded"] > 0, stats1
        assert stats1["replay_hits"] > 0, stats1   # ingest handoff
        print(f"  loaded={stats1['loaded']['loaded']} "
              f"replay_hits={stats1['replay_hits']} "
              f"write_throughs={stats1['write_throughs']}")

        print("== serve phase 2 (restart, same store) ==")
        warm, stats2 = serve_once(config_path, store_path, port, config)
        assert warm == cold, f"restart changed verdicts: {cold} -> {warm}"
        assert stats2["loaded"]["loaded"] >= stats1["loaded"]["loaded"]
        assert stats2["replay_hits"] >= len(WORKLOAD), stats2
        print(f"  loaded={stats2['loaded']['loaded']} "
              f"replay_hits={stats2['replay_hits']} — bit-for-bit OK")
        print(f"store smoke: OK ({store_path} kept for artifact upload)")
        return 0
    finally:
        os.unlink(manifest_path)
        os.unlink(config_path)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
