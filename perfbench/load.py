"""Closed-loop HTTP clients for the served-traffic benchmark.

The server answers one request per connection and then closes it, so
every request opens its own TCP connection.  Requests go out as raw
HTTP/1.1 bytes built before the clock starts, which keeps the client's
share of the machine -- and of its own interpreter lock -- small next
to the server's.

The loop is closed: each client thread sends its next request only
after the previous reply has fully arrived, as every known caller of
the server does (``ServeClient``, ``repro.check.serve``,
``tools/store_smoke.py``).
"""

from __future__ import annotations

import json
import socket
import threading
import time
from typing import NamedTuple

#: Socket timeout of one exchange: far above any answer within the
#: tenant's budget, so it fires only when the server hangs.
TIMEOUT_S = 60.0


class Sample(NamedTuple):
    """One query's outcome.  ``status`` is the HTTP status (0 when the
    exchange failed) and ``reply`` the JSON verdict -- for a batch
    member, its NDJSON line."""

    query: tuple
    sent_ns: int
    done_ns: int
    status: int
    reply: dict


def _post(addr: tuple, path: str, payload: dict) -> bytes:
    body = json.dumps(payload).encode("utf-8")
    head = (f"POST {path} HTTP/1.1\r\nHost: {addr[0]}:{addr[1]}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n")
    return head.encode("latin-1") + body


def _exchange(addr: tuple, raw: bytes) -> tuple[int, bytes]:
    """Send one request and read the reply to EOF: ``(status, body)``."""
    with socket.create_connection(addr, timeout=TIMEOUT_S) as sock:
        sock.sendall(raw)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    head, __, body = b"".join(chunks).partition(b"\r\n\r\n")
    return int(head.split(None, 2)[1]), body


def get_json(addr: tuple, path: str) -> dict:
    """``GET path``, parsed (``/stats``)."""
    raw = (f"GET {path} HTTP/1.1\r\nHost: {addr[0]}:{addr[1]}\r\n"
           "Connection: close\r\n\r\n").encode("latin-1")
    status, body = _exchange(addr, raw)
    if status != 200:
        raise OSError(f"GET {path}: HTTP {status}")
    return json.loads(body)


def eval_one(addr: tuple, query: tuple) -> list[Sample]:
    """``POST /eval`` of one ``(database, frontend, text)`` query."""
    database, frontend, text = query
    raw = _post(addr, "/eval", {"database": database, "frontend": frontend,
                                "query": text})
    sent = time.monotonic_ns()
    try:
        status, body = _exchange(addr, raw)
        done = time.monotonic_ns()
        return [Sample(query, sent, done, status, json.loads(body))]
    except (OSError, ValueError, IndexError) as exc:
        return [Sample(query, sent, time.monotonic_ns(), 0,
                       {"error": repr(exc)})]


def eval_batch(addr: tuple, item: tuple) -> list[Sample]:
    """``POST /eval_batch`` of ``(database, frontend, texts)``: one sample
    per member, timed from sending the batch to reading its line."""
    database, frontend, texts = item
    queries = [(database, frontend, text) for text in texts]
    raw = _post(addr, "/eval_batch", {"database": database,
                                      "frontend": frontend,
                                      "queries": list(texts)})
    lines: dict[int, Sample] = {}
    error = "no line for this member"
    sent = time.monotonic_ns()
    try:
        with socket.create_connection(addr, timeout=TIMEOUT_S) as sock:
            sock.sendall(raw)
            with sock.makefile("rb") as stream:
                status = int(stream.readline().split(None, 2)[1])
                while stream.readline().strip():
                    pass  # the response headers
                for line in stream:
                    done = time.monotonic_ns()
                    reply = json.loads(line)
                    index = reply.get("index")
                    if index is not None:
                        lines[index] = Sample(queries[index], sent, done,
                                              status, reply)
    except (OSError, ValueError, IndexError) as exc:
        error = repr(exc)
    failed = time.monotonic_ns()
    return [lines.get(index) or Sample(query, sent, failed, 0,
                                       {"error": error})
            for index, query in enumerate(queries)]


def run(addr: tuple, endpoint: str, items, connections: int, *,
        seconds: float | None = None, alive=None, on_progress=None):
    """Drive ``items`` through ``connections`` closed-loop clients.

    Without ``seconds`` every item is sent once (a set-up pass).  With
    it, the clients stop sending at the deadline; replies still in
    flight then are kept for the correctness check, and the caller
    counts only the samples done by the deadline.  ``on_progress`` gets
    the running count of finished queries.  Returns ``(start_ns,
    deadline_ns, samples)``.
    """
    send = eval_batch if endpoint == "/eval_batch" else eval_one
    items = iter(items)
    lock = threading.Lock()
    samples: list[Sample] = []
    errors: list[Exception] = []
    finished = 0
    start = time.monotonic_ns()
    deadline = None if seconds is None else start + round(seconds * 1e9)

    def client() -> None:
        nonlocal finished
        mine: list[Sample] = []
        try:
            while deadline is None or time.monotonic_ns() < deadline:
                with lock:
                    item = next(items, None)
                if item is None:
                    break
                got = send(addr, item)
                mine += got
                if on_progress is not None:
                    with lock:
                        finished += len(got)
                        count = finished
                    on_progress(count)
                if got[-1].status == 0 and alive is not None and not alive():
                    break
        except Exception as exc:  # re-raised on the calling thread
            errors.append(exc)
        finally:
            with lock:
                samples.extend(mine)

    threads = [threading.Thread(target=client, daemon=True)
               for __ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return start, deadline, samples
