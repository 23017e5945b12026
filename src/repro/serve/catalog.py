"""The database catalog: lazy construction, one shared engine cache.

A :class:`Catalog` turns the declarative :class:`~repro.serve.config.
ServeConfig` database entries into live :class:`~repro.engine.Engine`
objects on first use, and never builds the same view twice.  All
engines share **one** :class:`~repro.engine.cache.EngineCache`: result
entries are keyed by database *fingerprint* (genericity, Definition
2.4, is the soundness argument), so two tenants asking the same
question of the same database — or of two fingerprint-equal databases —
share the warm answer regardless of which engine object answered first.

The catalog also owns query compilation: request text is parsed and
lowered through :func:`repro.engine.frontends.lower_all` — along the
requested frontend's route only — once per ``(database, frontend,
text)`` triple and memoized, so a warm request costs three cache probes
(compile memo, prepared-plan memo, result cache) before the response is
written.  :meth:`Catalog.compiled` is the compile memo's non-blocking
probe, which lets the server answer such a request on its event loop.

Thread safety: construction and the compile memo run under locks
(the server evaluates on a thread pool); live engines are themselves
thread-safe per ``docs/concurrency.md``.
"""

from __future__ import annotations

import threading

from ..engine import Engine, EngineCache, lower_all
from ..engine.frontends import FCF_ROUTES
from ..errors import (
    ArityError,
    ParseError,
    RankMismatchError,
    TypeSignatureError,
)
from ..fcf.database import FcfDatabase
from ..fcf.relation import cofinite_value, finite_value
from ..logic import parse as parse_formula
from ..qlhs.parser import parse_program, parse_term
from ..util.memo import MISS, lru_cached
from .config import DatabaseSpec, ServeConfig

#: The frontend names ``POST /eval`` accepts, in docs order.
FRONTENDS = ("fo", "qlhs", "gmhs", "qlf")


class QueryError(TypeSignatureError):
    """A request that cannot be compiled (bad frontend, parse error,
    frontend unavailable for the target database).  Carries a
    machine-readable ``code`` for the HTTP error body."""

    def __init__(self, code: str, detail: str):
        super().__init__(detail)
        self.code = code
        self.detail = detail


def _build_database(spec: DatabaseSpec):
    """Construct the hs (and, for fcf entries, fcf) view of one spec.

    Returns ``(hsdb, fcf_db_or_None)``.
    """
    if spec.kind == "builtin":
        from ..graphs import mixed_components_hsdb, triangles_hsdb
        from ..symmetric import infinite_clique, rado_hsdb
        builders = {
            "clique": infinite_clique,
            "rado": rado_hsdb,
            "triangles": triangles_hsdb,
            "k3k2": mixed_components_hsdb,
        }
        return builders[spec.source](), None
    if spec.kind == "finite":
        from ..core import finite_database
        from ..symmetric.constructions import from_finite_database
        parts = [(rank, [tuple(t) for t in tuples])
                 for rank, tuples, __ in spec.relations]
        finite = finite_database(parts, list(range(spec.domain)),
                                 name=spec.name)
        return from_finite_database(finite, name=spec.name), None
    # kind == "fcf": the native fcf view plus the Proposition 4.1
    # hs view, so every frontend route can serve the same database.
    values = [cofinite_value(rank, [tuple(t) for t in tuples]) if cofinite
              else finite_value(rank, [tuple(t) for t in tuples])
              for rank, tuples, cofinite in spec.relations]
    fcf_db = FcfDatabase(values, name=spec.name)
    return fcf_db.to_hsdb(), fcf_db


class Catalog:
    """Named databases behind one shared :class:`EngineCache`.

    Parameters
    ----------
    config:
        The validated :class:`ServeConfig` whose ``databases`` table
        this catalog serves.
    cache:
        An :class:`EngineCache` to share; a fresh one is created when
        omitted.  Passing a pre-warmed cache is how a restarting server
        would resume warm (ROADMAP item 2).
    """

    def __init__(self, config: ServeConfig,
                 cache: EngineCache | None = None):
        self.config = config
        self.cache = cache if cache is not None else EngineCache()
        self._lock = threading.Lock()
        self._engines: dict[tuple[str, str], Engine] = {}
        self._compile = lru_cached(maxsize=4096)(self._compile_uncached)

    # -- databases and engines ----------------------------------------------

    def names(self) -> list[str]:
        """The configured database names, in config order."""
        return [spec.name for spec in self.config.databases]

    def spec(self, name: str) -> DatabaseSpec:
        """The named spec; :class:`QueryError` (``unknown_database``)
        when the catalog has no such entry."""
        try:
            return self.config.database(name)
        except KeyError:
            raise QueryError(
                "unknown_database",
                f"no database {name!r}; choose from {self.names()}"
            ) from None

    def engine(self, name: str, view: str = "hs") -> Engine:
        """The (lazily built, memoized) engine over one view.

        ``view`` is ``"hs"`` (every database has one) or ``"fcf"``
        (only ``kind: fcf`` entries; :class:`QueryError` otherwise).
        Both views of one database share the catalog-wide cache, and a
        second request for the same view returns the same engine.
        Engines inherit the service-wide execution configuration
        (``server.optimize`` / ``server.compiled`` in the config; both
        default on) — one knob for the whole catalog, so every tenant
        sees the same plans and the shared result cache stays coherent.
        """
        spec = self.spec(name)
        key = (name, view)
        optimize = self.config.optimize
        compiled = self.config.compiled
        with self._lock:
            got = self._engines.get(key)
            if got is not None:
                return got
            hsdb, fcf_db = _build_database(spec)
            self._engines[(name, "hs")] = Engine(
                hsdb, cache=self.cache, optimize=optimize,
                compiled=compiled)
            if fcf_db is not None:
                self._engines[(name, "fcf")] = Engine(
                    fcf_db, cache=self.cache, optimize=optimize,
                    compiled=compiled)
            got = self._engines.get(key)
        if got is None:
            raise QueryError(
                "frontend_unavailable",
                f"database {name!r} (kind {spec.kind!r}) has no fcf "
                "view; the qlf frontend needs a 'kind: fcf' database")
        return got

    def built(self) -> list[str]:
        """Names of databases already constructed (observability)."""
        with self._lock:
            return sorted({name for name, __ in self._engines})

    # -- query compilation ---------------------------------------------------

    def compile(self, name: str, frontend: str, text: str):
        """Compile request text for one database and frontend.

        Returns ``(engine, plan)`` ready for :meth:`Engine.eval
        <repro.engine.executor.Engine.eval>`.  Memoized per
        ``(database, frontend, text)``; raises :class:`QueryError`
        with a machine-readable ``code`` on any failure.
        """
        if frontend not in FRONTENDS:
            raise QueryError(
                "unknown_frontend",
                f"no frontend {frontend!r}; choose from {FRONTENDS}")
        return self._compile(name, frontend, text)

    def compiled(self, name: str, frontend: str, text: str):
        """The memoized :meth:`compile` result, or ``None``.

        Never compiles and never waits: text not compiled yet, text
        whose compilation failed, and a compile memo busy on another
        thread (its lock is held for a whole lowering) all read as
        ``None``.  A hit counts as a memo hit.
        """
        got = self._compile.peek(name, frontend, text)
        return None if got is MISS else got

    def _compile_uncached(self, name: str, frontend: str, text: str):
        """The compile body behind the memo: parse, then lower along
        the requested frontend's route alone."""
        view = "fcf" if frontend in FCF_ROUTES else "hs"
        engine = self.engine(name, view)
        try:
            if frontend in ("fo", "gmhs"):
                query = parse_formula(text)
            else:
                query = self._parse_qlhs(text)
            plans = lower_all(query, engine.signature, routes=(frontend,))
        except ParseError as exc:
            raise QueryError("parse_error", str(exc)) from exc
        except (TypeSignatureError, RankMismatchError, ArityError) as exc:
            raise QueryError("type_error", str(exc)) from exc
        plan = plans.get(frontend)
        if plan is None:
            raise QueryError(
                "frontend_unavailable",
                f"the {frontend!r} route cannot express this query "
                "(QLf+ excludes the hs intrinsics; programs have no "
                "fo route)")
        return engine, plan

    @staticmethod
    def _parse_qlhs(text: str):
        """Parse QLhs request text: a term if possible, else a program."""
        try:
            return parse_term(text)
        except ParseError:
            return parse_program(text)

    # -- observability -------------------------------------------------------

    def stats(self) -> dict:
        """Per-database engine snapshots plus the shared-cache view.

        The wire format of ``GET /stats``'s ``databases``/``global``
        sections; every leaf is JSON-safe
        (:meth:`~repro.engine.stats.EngineStats.to_dict`).
        """
        with self._lock:
            engines = dict(self._engines)
        databases = {}
        for (name, view), engine in sorted(engines.items()):
            databases.setdefault(name, {})[view] = \
                engine.stats().to_dict()
        return {
            "databases": databases,
            "shared_cache": {
                "plans": self.cache.plans.stats().to_dict(),
                "results": self.cache.results.stats().to_dict(),
            },
        }
