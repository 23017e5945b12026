"""The asyncio serving tier: the engine behind HTTP endpoints.

:class:`ServeApp` wires the pieces together — a
:class:`~repro.serve.catalog.Catalog` of lazily built databases behind
one shared :class:`~repro.engine.cache.EngineCache`, a
:class:`~repro.serve.tenants.TenantRegistry` enforcing quotas, a
:class:`~repro.trace.TraceRecorder` ring buffer, and a thread pool the
(CPU-bound, thread-safe) engine evaluations actually run on so the
event loop stays responsive.  A ``/eval`` whose answer the memos
already hold — compile memo, prepared-plan memo, result cache — is
answered on the event loop itself, with no thread hop and no store
read: the loop only probes those memos, never waiting on a lock held
across a computation and never computing, so a cold or diverging
evaluation on the pool cannot stall it.

Endpoints (full request/response schema in ``docs/serving.md``)::

    POST /eval         one query -> one JSON verdict
    POST /eval_batch   many queries -> streamed NDJSON verdicts,
                       one line per member, as members complete
    GET  /stats        per-tenant + per-database + global snapshots
    GET  /trace?n=K    tail of the trace ring buffer, JSONL
    GET  /catalog      databases, frontends, tenants
    GET  /healthz      liveness probe

Failure discipline: *inside* an evaluation the three-valued contract
holds — a tripped budget is a 200 response whose verdict is ``UNKNOWN``
with a machine-readable reason.  *Admission* failures are HTTP errors:
429 + structured body for quota refusals, 400 for uncompilable
requests, 403 for undeclared tenants.  One tenant's refusals never
block another tenant's requests.

Tracing across the event loop: a request answered from the memos
records its ``serve.request`` span on the loop thread, around the
probe alone (nothing inside it awaits).  Any other request opens its
span on the *worker thread* that evaluates (the span stack is
thread-local, and coroutines must not hold spans open across
``await``), so engine spans nest under it naturally; the loop's failed
probe is discarded, so every request records one ``serve.request``
span.
"""

from __future__ import annotations

import asyncio
import signal
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from ..engine import EngineCache
from ..engine.verdict import Verdict
from ..trace import TraceRecorder, span
from ..trace.spans import active_recorder, install
from .catalog import FRONTENDS, Catalog, QueryError
from .config import ServeConfig, default_config
from .protocol import (
    ProtocolError,
    Request,
    error_response,
    json_response,
    ndjson_line,
    read_request,
    response_bytes,
    stream_head,
)
from .tenants import QuotaExceeded, TenantRegistry, UnknownTenant

#: Sentinel closing a streaming response's queue.
_DONE = object()


def verdict_payload(verdict: Verdict) -> dict:
    """The wire form of one three-valued verdict."""
    return {"status": verdict.status, "reason": verdict.reason,
            "steps": verdict.steps}


class ServeApp:
    """The HTTP application: routing, admission, evaluation, stats.

    Parameters
    ----------
    config:
        A validated :class:`~repro.serve.config.ServeConfig` (the
        batteries-included :func:`~repro.serve.config.default_config`
        when omitted).
    cache:
        An :class:`~repro.engine.cache.EngineCache` to share with the
        catalog (fresh when omitted) — the hook the persistence layer
        uses to restart warm.
    store:
        Path of a durable :class:`repro.store.Store` sqlite file
        (overrides ``config.store`` when given).  When either is set,
        persisted results load into the shared cache at construction,
        every request the memos cannot answer probes the store's
        replayable verdicts under the budget-class rule, and new
        verdicts write through.
    """

    def __init__(self, config: ServeConfig | None = None, *,
                 cache: EngineCache | None = None,
                 store: str | None = None):
        self.config = config if config is not None else default_config()
        self.config.validate()
        self.catalog = Catalog(self.config, cache=cache)
        self.tenants = TenantRegistry(self.config)
        self.recorder = TraceRecorder(capacity=self.config.trace_capacity)
        self.pool = ThreadPoolExecutor(
            max_workers=self.config.workers,
            thread_name_prefix="repro-serve")
        self.started_at = time.monotonic()
        self.requests_seen = 0
        self._counter_lock = threading.Lock()
        self._previous_recorder = None
        self._started = False
        self.store = None
        self.store_loaded = {"loaded": 0, "skipped": 0}
        self._store_hits = 0
        self._store_writes = 0
        self._answered_on_loop = 0
        store_path = store if store is not None else self.config.store
        if store_path:
            from ..store import Store
            self.store = Store(store_path)
            self.store_loaded = self.store.load_results(self.catalog.cache)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Install the trace recorder (idempotent)."""
        if not self._started:
            self._previous_recorder = active_recorder()
            install(self.recorder)
            self._started = True

    def close(self) -> None:
        """Cancel in-flight work, stop the pool, restore the recorder,
        and snapshot the result cache into the store (when attached)."""
        if self._started:
            install(self._previous_recorder)
            self._started = False
        self.tenants.cancel_all()
        self.pool.shutdown(wait=False, cancel_futures=True)
        if self.store is not None:
            self.store.snapshot_cache(self.catalog.cache)
            self.store.close()
            self.store = None

    def _count_request(self) -> int:
        """Bump and return the served-request counter (thread-safe)."""
        with self._counter_lock:
            self.requests_seen += 1
            return self.requests_seen

    # -- the connection handler ---------------------------------------------

    async def handle(self, reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        """One connection: read a request, route it, close."""
        try:
            try:
                request = await read_request(reader)
                if request is None:
                    return
                self._count_request()
                await self._dispatch(request, writer)
            except ProtocolError as exc:
                writer.write(error_response(exc.status, "protocol",
                                            exc.detail))
            except QuotaExceeded as exc:
                writer.write(json_response(429, exc.to_dict()))
            except UnknownTenant as exc:
                writer.write(error_response(403, "unknown_tenant",
                                            str(exc)))
            except QueryError as exc:
                status = 404 if exc.code == "unknown_database" else 400
                writer.write(error_response(status, exc.code, exc.detail))
            except (ConnectionError, asyncio.CancelledError):
                raise
            except Exception as exc:  # noqa: BLE001 - the 500 boundary
                print(f"repro.serve: internal error: {exc!r}",
                      file=sys.stderr)
                writer.write(error_response(
                    500, "internal", f"{type(exc).__name__}: {exc}"))
            await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(self, request: Request,
                        writer: asyncio.StreamWriter) -> None:
        """Route one parsed request to its endpoint."""
        route = (request.method, request.path)
        if route == ("POST", "/eval"):
            writer.write(await self._eval(request))
        elif route == ("POST", "/eval_batch"):
            await self._eval_batch(request, writer)
        elif route == ("GET", "/stats"):
            writer.write(json_response(200, self.stats()))
        elif route == ("GET", "/trace"):
            writer.write(self._trace_tail(request))
        elif route == ("GET", "/catalog"):
            writer.write(json_response(200, self.catalog_payload()))
        elif route == ("GET", "/healthz"):
            writer.write(json_response(200, {
                "ok": True,
                "uptime_s": time.monotonic() - self.started_at}))
        elif request.path in ("/eval", "/eval_batch", "/stats", "/trace",
                              "/catalog", "/healthz"):
            raise ProtocolError(
                405, f"{request.method} not supported on {request.path}")
        else:
            raise ProtocolError(404, f"no endpoint {request.path!r}")

    # -- the durable store (docs/persistence.md) -----------------------------

    def _store_replay(self, engine, plan, budget) -> Verdict | None:
        """A persisted verdict for this request, or ``None``.

        Completed values answer any budget; UNKNOWN(out_of_fuel) rows
        answer only requests whose step budget is at most the class
        they were computed under — the budget-compatibility audit lives
        in :meth:`repro.store.backend.Store.lookup_verdict`.
        """
        if self.store is None:
            return None
        prepared = engine.prepare(plan)
        verdict = self.store.lookup_verdict(
            engine.fingerprint, prepared, budget.max_steps)
        if verdict is not None:
            with self._counter_lock:
                self._store_hits += 1
        return verdict

    def _store_write(self, engine, plan, verdict: Verdict,
                     budget) -> None:
        """Write one freshly computed verdict through to the store."""
        if self.store is None:
            return
        prepared = engine.prepare(plan)
        if self.store.put_verdict(engine.fingerprint, prepared, verdict,
                                  budget.max_steps):
            with self._counter_lock:
                self._store_writes += 1

    # -- request parsing -----------------------------------------------------

    def _eval_fields(self, request: Request, *,
                     batch: bool) -> tuple:
        """Validate the shared ``/eval``/``/eval_batch`` body fields."""
        payload = request.json()
        database = payload.get("database")
        if not isinstance(database, str) or not database:
            raise ProtocolError(400, "missing string field 'database'")
        frontend = payload.get("frontend", "fo")
        if frontend not in FRONTENDS:
            raise QueryError(
                "unknown_frontend",
                f"no frontend {frontend!r}; choose from {FRONTENDS}")
        tenant_name = payload.get("tenant")
        if tenant_name is not None and not isinstance(tenant_name, str):
            raise ProtocolError(400, "'tenant' must be a string")
        tenant = self.tenants.get(tenant_name)
        if batch:
            queries = payload.get("queries")
            if (not isinstance(queries, list)
                    or any(not isinstance(x, str) for x in queries)):
                raise ProtocolError(
                    400, "missing list-of-strings field 'queries'")
            return database, frontend, tenant, queries
        query = payload.get("query")
        if not isinstance(query, str) or not query:
            raise ProtocolError(400, "missing string field 'query'")
        return database, frontend, tenant, query

    # -- POST /eval ----------------------------------------------------------

    async def _eval(self, request: Request) -> bytes:
        """One query, one JSON verdict (or a raised admission error).

        Answered on the event loop when the memos hold the answer
        (:meth:`_answer_from_memos`); otherwise evaluated on the pool,
        behind the store probe, with write-through.
        """
        database, frontend, tenant, query = self._eval_fields(
            request, batch=False)
        budget = tenant.admit()

        def work() -> tuple[Verdict, float]:
            t0 = time.perf_counter()
            with span("serve.request", endpoint="/eval",
                      tenant=tenant.name, database=database,
                      frontend=frontend) as sp:
                engine, plan = self.catalog.compile(database, frontend,
                                                    query)
                verdict = self._store_replay(engine, plan, budget)
                if verdict is not None:
                    sp.set(verdict=verdict.status, store="hit")
                else:
                    verdict = engine.eval(plan, budget=budget)
                    self._store_write(engine, plan, verdict, budget)
                    sp.set(verdict=verdict.status)
                sp.count("steps", budget.steps)
            return verdict, time.perf_counter() - t0

        statuses: list[str] = []
        try:
            answered = self._answer_from_memos(database, frontend, tenant,
                                               query, budget)
            if answered is None:
                loop = asyncio.get_running_loop()
                answered = await loop.run_in_executor(self.pool, work)
            verdict, wall = answered
            statuses.append(verdict.status)
        finally:
            tenant.settle(budget, verdicts=statuses)
        body = verdict_payload(verdict)
        body.update(database=database, frontend=frontend,
                    tenant=tenant.name, wall_us=int(wall * 1e6))
        return json_response(200, body)

    def _answer_from_memos(self, database: str, frontend: str, tenant,
                           query: str,
                           budget) -> tuple[Verdict, float] | None:
        """The warm answer to one ``/eval``, or ``None`` on any miss.

        Runs on the event loop, so it only probes: the compile memo
        (:meth:`Catalog.compiled <repro.serve.catalog.Catalog.compiled>`),
        then the prepared-plan memo and the result cache
        (:meth:`Engine.cached_verdict
        <repro.engine.executor.Engine.cached_verdict>`).  None of them
        computes or waits on a lock held across a computation.  The
        result cache holds only completed values, which answer any
        budget (genericity, Definition 2.4, and the store's
        budget-class rule), so a hit needs neither the pool nor the
        store; ``UNKNOWN`` answers always miss here and replay from the
        store on the pool.
        """
        t0 = time.perf_counter()
        with span("serve.request", endpoint="/eval",
                  tenant=tenant.name, database=database,
                  frontend=frontend) as sp:
            compiled = self.catalog.compiled(database, frontend, query)
            verdict = (None if compiled is None
                       else compiled[0].cached_verdict(compiled[1]))
            if verdict is None:
                sp.discard()  # the pool's serve.request span follows
                return None
            sp.set(verdict=verdict.status, answered="loop")
            sp.count("steps", budget.steps)
        with self._counter_lock:
            self._answered_on_loop += 1
        return verdict, time.perf_counter() - t0

    # -- POST /eval_batch ----------------------------------------------------

    async def _eval_batch(self, request: Request,
                          writer: asyncio.StreamWriter) -> None:
        """Many queries, streamed NDJSON — one line as each member
        completes, ending with a summary line.

        Admission charges the whole batch up front (``cost`` = member
        count against ``max_requests``); each member then runs under
        its own fork of the request budget — the engine's
        ``eval_batch`` discipline, so one diverging member goes
        ``UNKNOWN`` while the rest still answer.  A member that fails
        to *compile* yields an error line for its index and the batch
        continues.
        """
        database, frontend, tenant, queries = self._eval_fields(
            request, batch=True)
        budget = tenant.admit(cost=len(queries))
        loop = asyncio.get_running_loop()
        queue: asyncio.Queue = asyncio.Queue()

        def emit(item) -> None:
            loop.call_soon_threadsafe(queue.put_nowait, item)

        def work() -> None:
            members: list = []
            statuses: list[str] = []
            try:
                with span("serve.request", endpoint="/eval_batch",
                          tenant=tenant.name, database=database,
                          frontend=frontend, size=len(queries)) as sp:
                    self._batch_sequential(database, frontend, queries,
                                           budget, members, statuses,
                                           emit)
                    sp.count("steps", sum(m.steps for m in members))
            finally:
                tenant.settle(budget, *members, verdicts=statuses)
                emit({"done": True, "members": len(queries),
                      "tenant": tenant.name})
                emit(_DONE)

        writer.write(stream_head())
        await writer.drain()
        future = loop.run_in_executor(self.pool, work)
        while True:
            item = await queue.get()
            if item is _DONE:
                break
            writer.write(ndjson_line(item))
            await writer.drain()
        await future

    def _batch_sequential(self, database: str, frontend: str,
                          queries: list, budget, members: list,
                          statuses: list, emit) -> None:
        """The in-process batch loop: one member at a time, each line
        emitted as its member completes."""
        for index, text in enumerate(queries):
            line = {"index": index}
            member = budget.fork()
            members.append(member)
            t0 = time.perf_counter()
            try:
                engine, plan = self.catalog.compile(database, frontend,
                                                    text)
                verdict = self._store_replay(engine, plan, member)
                if verdict is None:
                    verdict = engine.eval(plan, budget=member)
                    self._store_write(engine, plan, verdict, member)
            except QueryError as exc:
                line.update(error=exc.code, detail=exc.detail)
            else:
                statuses.append(verdict.status)
                line.update(verdict_payload(verdict))
            line["wall_us"] = int((time.perf_counter() - t0) * 1e6)
            emit(line)

    # -- observability endpoints --------------------------------------------

    def stats(self) -> dict:
        """The ``GET /stats`` payload: global + per-database +
        per-tenant snapshots, all JSON-safe."""
        catalog = self.catalog.stats()
        totals = {"evaluations": 0, "batch_requests": 0,
                  "oracle_questions": 0, "wall_time": 0.0,
                  "verdicts": {"true": 0, "false": 0, "unknown": 0}}
        for views in catalog["databases"].values():
            for snapshot in views.values():
                totals["evaluations"] += snapshot["evaluations"]
                totals["batch_requests"] += snapshot["batch_requests"]
                totals["oracle_questions"] += snapshot["oracle_questions"]
                totals["wall_time"] += snapshot["wall_time"]
                for status, n in snapshot["verdicts"].items():
                    totals["verdicts"][status] += n
        payload = {
            "server": {
                "uptime_s": time.monotonic() - self.started_at,
                "requests": self.requests_seen,
                "answered_on_loop": self._answered_on_loop,
                "workers": self.config.workers,
                "built": self.catalog.built(),
            },
            "global": {**totals, "shared_cache": catalog["shared_cache"]},
            "databases": catalog["databases"],
            "tenants": self.tenants.snapshot(),
        }
        if self.store is not None:
            with self._counter_lock:
                hits, writes = self._store_hits, self._store_writes
            payload["store"] = {
                "path": self.store.path,
                "loaded": dict(self.store_loaded),
                "replay_hits": hits,
                "write_throughs": writes,
                "counts": self.store.counts(),
            }
        return payload

    def catalog_payload(self) -> dict:
        """The ``GET /catalog`` payload."""
        return {
            "databases": {spec.name: {"kind": spec.kind}
                          for spec in self.config.databases},
            "frontends": list(FRONTENDS),
            "tenants": self.tenants.names(),
            "default_tenant": self.tenants.default_name,
        }

    def _trace_tail(self, request: Request) -> bytes:
        """The ``GET /trace?n=K`` response: last K JSONL span records."""
        try:
            n = int(request.query.get("n", "200"))
        except ValueError as exc:
            raise ProtocolError(400, "'n' must be an integer") from exc
        lines = self.recorder.trace().to_jsonl().splitlines()
        tail = "\n".join(lines[-n:] if n > 0 else [])
        return response_bytes(200, (tail + "\n").encode("utf-8")
                              if tail else b"",
                              content_type="application/x-ndjson")


class ServerHandle:
    """A running server: background thread + event loop + socket.

    Built by :func:`start_in_thread`; used by tests, the E19 load
    generator, and the CI smoke job.  ``base_url`` is ready as soon as
    the constructor returns; :meth:`stop` shuts down idempotently.
    """

    def __init__(self, app: ServeApp, host: str, port: int):
        self.app = app
        self.host = host
        self.port = 0
        self._stop: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._ready = threading.Event()
        self._failure: BaseException | None = None
        self._thread = threading.Thread(
            target=self._run, args=(host, port),
            name="repro-serve-loop", daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("server failed to start within 30s")
        if self._failure is not None:
            raise RuntimeError(
                f"server failed to start: {self._failure!r}")

    @property
    def base_url(self) -> str:
        """The root URL clients should talk to."""
        return f"http://{self.host}:{self.port}"

    def _run(self, host: str, port: int) -> None:
        try:
            asyncio.run(self._main(host, port))
        except BaseException as exc:  # noqa: BLE001 - surfaced to starter
            self._failure = exc
            self._ready.set()

    async def _main(self, host: str, port: int) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self.app.start()
        server = await asyncio.start_server(self.app.handle, host, port)
        self.port = server.sockets[0].getsockname()[1]
        self._ready.set()
        try:
            async with server:
                await self._stop.wait()
        finally:
            self.app.close()

    def stop(self) -> None:
        """Shut the server down and join its thread (idempotent)."""
        loop, stop = self._loop, self._stop
        if loop is not None and stop is not None and loop.is_running():
            loop.call_soon_threadsafe(stop.set)
        self._thread.join(timeout=30)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def start_in_thread(config: ServeConfig | None = None, *,
                    host: str = "127.0.0.1", port: int = 0,
                    cache: EngineCache | None = None,
                    store: str | None = None) -> ServerHandle:
    """Start a server on a background thread (``port=0`` = ephemeral).

    The in-process entry point tests and the E19/E21 benches use::

        with start_in_thread(port=0) as server:
            client = ServeClient(server.base_url)
            client.eval("rado", "exists x. R1(x, x)")

    ``store`` attaches a durable :class:`repro.store.Store` (warm
    restart + write-through), overriding ``config.store``.
    """
    app = ServeApp(config, cache=cache, store=store)
    return ServerHandle(app, host, port)


def serve_forever(config: ServeConfig | None = None, *,
                  host: str | None = None,
                  port: int | None = None,
                  store: str | None = None) -> int:
    """Run the server on the main thread until SIGINT or SIGTERM (the
    ``python -m repro serve`` path).  Returns the process exit code.

    Both signals take one shutdown path: stop accepting, then
    :meth:`ServeApp.close`, which snapshots the result cache into the
    store when one is attached.
    """
    app = ServeApp(config, store=store)
    host = host if host is not None else app.config.host
    port = port if port is not None else app.config.port

    async def main() -> None:
        app.start()
        server = await asyncio.start_server(app.handle, host, port)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signum, stop.set)
        bound = server.sockets[0].getsockname()
        print(f"repro serve: listening on http://{bound[0]}:{bound[1]} "
              f"({len(app.config.databases)} databases, "
              f"{len(app.config.tenants)} tenants)", flush=True)
        if app.store is not None:
            print(f"repro serve: store {app.store.path} "
                  f"(loaded {app.store_loaded['loaded']} warm results)",
                  flush=True)
        try:
            async with server:
                await stop.wait()
        finally:
            app.close()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass  # SIGINT before the handlers above were installed
    print("repro serve: shutting down")
    return 0
