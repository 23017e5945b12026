"""CI smoke driver for the serving tier.

Starts a real ``python -m repro serve`` process on an ephemeral-ish
port, waits for ``/healthz``, then exercises the client surface the
way the CI ``serve-smoke`` job requires: single eval on every
frontend, repeated so each repeat must be answered on the event loop
(``/stats`` ``server.answered_on_loop`` rises by one per repeat),
eval_batch streaming (member lines before the summary line),
429-on-quota with tenant isolation, ``/stats``, and the differential
oracle.  The server runs in its own process group, and
once it has exited nothing may be left in that group: a process that
outlives ``repro serve`` fails the smoke.  Exits non-zero on any
failure, killing the server's whole group either way.

Usage::

    PYTHONPATH=src python tools/serve_smoke.py [--port=P]
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

from repro.check.serve import run_serve_check  # noqa: E402
from repro.serve import ServeClient, ServeError  # noqa: E402

#: The smoke catalog: small, with a deliberately tight tenant.
CONFIG = {
    "databases": {
        "rado": {"kind": "builtin"},
        "clique": {"kind": "builtin"},
        "triangles": {"kind": "builtin"},
        "k3k2": {"kind": "builtin"},
        "pair": {"kind": "fcf", "relations": [
            {"rank": 2, "tuples": [[0, 1], [1, 0]]},
            {"rank": 1, "tuples": [[0]], "cofinite": True},
        ]},
    },
    "tenants": {"default": {}, "capped": {"max_requests": 3}},
}


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


def smoke(base_url: str) -> None:
    """The smoke sequence; raises on any broken expectation."""
    client = ServeClient(base_url)

    print("== eval on every frontend, then again from the memos ==")
    cases = [("rado", "fo", "forall x. exists y. R1(x, y)", "true"),
             ("rado", "qlhs", "R1 & !R1", "false"),
             ("rado", "gmhs", "exists x. R1(x, x)", "false"),
             ("pair", "qlf", "R1 & swap(R1)", "true")]
    for database, frontend, query, expected in cases:
        body = client.eval(database, query, frontend=frontend)
        assert body["status"] == expected, (frontend, body)
        print(f"  {frontend:>4}: {database} |= {query!r} -> {body['status']}")
    on_loop = client.stats()["server"]["answered_on_loop"]
    for database, frontend, query, expected in cases:
        body = client.eval(database, query, frontend=frontend)
        assert body["status"] == expected, (frontend, body)
    answered = client.stats()["server"]["answered_on_loop"] - on_loop
    assert answered >= len(cases), \
        f"only {answered} of {len(cases)} warm repeats answered on the loop"
    print(f"  {answered} warm repeats answered on the event loop")

    print("== eval_batch streaming ==")
    lines = list(client.eval_batch(
        "rado", ["exists x. R1(x, x)", "forall x. exists y. R1(x, y)"]))
    assert [m.get("status") for m in lines[:-1]] == ["false", "true"], lines
    assert lines[-1]["done"] is True
    print(f"  {len(lines) - 1} member lines + summary {lines[-1]}")

    print("== 429 on quota, tenant isolation ==")
    for __ in range(3):
        client.eval("rado", "exists x. R1(x, x)", tenant="capped")
    try:
        client.eval("rado", "exists x. R1(x, x)", tenant="capped")
        raise AssertionError("4th capped request was not refused")
    except ServeError as exc:
        assert exc.status == 429, exc
        assert exc.payload["error"] == "over_quota", exc.payload
        print(f"  429: {exc.payload}")
    survivor = client.eval("rado", "exists x. R1(x, x)")
    assert survivor["status"] == "false"
    print("  default tenant still serving")

    print("== /stats ==")
    stats = client.stats()
    assert stats["tenants"]["capped"]["rejected"] >= 1
    assert stats["global"]["evaluations"] >= 1
    print(f"  requests={stats['server']['requests']} "
          f"evaluations={stats['global']['evaluations']}")

    print("== differential oracle ==")
    from repro.serve.config import config_from_dict
    result = run_serve_check(base_url, config=config_from_dict(CONFIG))
    assert result["disagreements"] == [], result["disagreements"]
    print(f"  {result['agreements']}/{result['cases']} agree")


def reap_group(pgid: int) -> bool:
    """Whether any process is left in process group ``pgid``; the
    group is killed if so."""
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    os.killpg(pgid, signal.SIGKILL)
    return True


def main(argv: list[str]) -> int:
    """Start the server subprocess, smoke it, tear it down."""
    port = 8199
    for arg in argv:
        if arg.startswith("--port="):
            port = int(arg.split("=", 1)[1])
        else:
            raise SystemExit(
                "usage: python tools/serve_smoke.py [--port=P]")
    with tempfile.NamedTemporaryFile(
            "w", suffix=".json", delete=False) as fh:
        json.dump(CONFIG, fh)
        config_path = fh.name
    env = dict(os.environ)
    env["PYTHONPATH"] = (os.path.join(REPO, "src") + os.pathsep
                         + env.get("PYTHONPATH", ""))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         f"--config={config_path}", "--host=127.0.0.1", f"--port={port}"],
        env=env, start_new_session=True)
    try:
        client = ServeClient(f"http://127.0.0.1:{port}")
        wait_healthy(client)
        smoke(f"http://127.0.0.1:{port}")
    finally:
        proc.terminate()
        proc.wait(timeout=30)
        os.unlink(config_path)
        leaked = reap_group(proc.pid)
    if leaked:
        print("serve smoke: FAILED: processes outlived the server "
              "(killed)", file=sys.stderr)
        return 1
    print("serve smoke: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
