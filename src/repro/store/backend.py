"""The WAL-mode sqlite store: a durable, cross-process engine memo.

A :class:`Store` persists the three things the serving tier needs to
restart warm (ROADMAP item 1):

* **databases** — name, kind, construction spec, fingerprint, and
  (for hs entries) the :mod:`repro.symmetric.serialize` snapshot of the
  finite core, as provenance;
* **plans** — the canonical JSON of every prepared plan that produced
  a persisted entry, keyed by its content hash
  (:func:`~repro.store.codec.plan_hash`);
* **results** — one table holding both completed values and replayable
  UNKNOWN verdicts, keyed by
  ``(db_fingerprint, plan_hash, args, budget_class)``.

Budget-class discipline (the cross-process-consistency rule this PR's
bugfix sweep enforces; see ``docs/persistence.md``):

* a **completed** TRUE/FALSE value is budget-independent — evaluation
  finished, so any budget would have produced it; its row carries the
  wildcard class ``"*"`` and answers requests under *any* budget;
* an ``UNKNOWN(out_of_fuel)`` is deterministic in its step limit: a
  run that exhausted ``B`` steps would exhaust any ``B' <= B`` too.
  Its row carries class ``str(B)`` and is replayed **only** for
  requests whose step budget is at most ``B`` — never for a larger
  budget, which might have completed (the masking bug this layer must
  not introduce);
* ``UNKNOWN(deadline)`` / ``UNKNOWN(cancelled)`` depend on wall-clock
  scheduling and operator action — transient facts.  They are **never
  persisted** (:meth:`Store.put_verdict` refuses them).

Concurrency contract: the sqlite file runs in WAL journal mode, so N
server/ingest processes share one store — readers never block the
writer and vice versa; a 5 s busy timeout absorbs write bursts.
Within one process a :class:`Store` is thread-safe (one connection
behind a lock — serving-tier write-through happens on pool threads).
All writes are idempotent upserts: two processes persisting the same
entry converge on one row.

Each call encodes its plan once: a write derives the plan hash from the
canonical text it stores (:func:`~repro.store.codec.text_hash`) and
lands the ``plans`` and ``results`` rows in one transaction, and a
lookup reads every row of its key with one ``SELECT``.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
from pathlib import Path
from typing import Any

from ..engine.cache import EngineCache, ResultCache
from ..engine.verdict import Verdict
from ..errors import RepresentationError
from ..fcf.relation import FcfValue
from . import codec

#: Schema version stamped into ``meta``; mismatches fail loudly.
SCHEMA_VERSION = 1

#: The wildcard budget class of completed (budget-independent) values.
ANY_BUDGET = "*"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS databases (
    fingerprint TEXT PRIMARY KEY,
    name        TEXT NOT NULL,
    kind        TEXT NOT NULL,
    spec        TEXT NOT NULL,
    snapshot    TEXT,
    created_s   REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS plans (
    plan_hash TEXT PRIMARY KEY,
    plan      TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS results (
    fingerprint  TEXT NOT NULL,
    plan_hash    TEXT NOT NULL,
    args         TEXT NOT NULL,
    budget_class TEXT NOT NULL,
    status       TEXT NOT NULL,
    reason       TEXT,
    steps        INTEGER,
    value        TEXT,
    PRIMARY KEY (fingerprint, plan_hash, args, budget_class)
);
CREATE INDEX IF NOT EXISTS results_by_db ON results (fingerprint);
"""


class StoreError(RepresentationError):
    """A store file this library cannot use (bad schema version)."""


def _truth(value: Any) -> bool:
    """Truth of an evaluated relation — nonemptiness, mirroring
    :meth:`repro.engine.executor.Engine._truth` (rank-0 fcf values test
    ``()``-membership, honouring co-finiteness)."""
    if isinstance(value, bool):
        return value
    if isinstance(value, FcfValue):
        return value.contains(()) if value.rank == 0 else bool(
            value.tuples or value.cofinite)
    return not value.is_empty


class Store:
    """One durable engine memo in a sqlite file.

    Parameters
    ----------
    path:
        The sqlite file (created, with its schema, when absent).
        ``":memory:"`` works for tests but obviously defeats the
        durability and the cross-process sharing.

    Use as a context manager or call :meth:`close` explicitly; every
    write commits immediately (one transaction per entry), so a killed
    process loses at most the write in flight — WAL guarantees the file
    stays consistent.
    """

    def __init__(self, path: str | Path):
        self.path = str(path)
        self._lock = threading.RLock()
        self._conn = sqlite3.connect(
            self.path, timeout=5.0, check_same_thread=False,
            isolation_level=None)
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.execute("PRAGMA busy_timeout=5000")
        self._conn.executescript(_SCHEMA)
        self._init_meta()

    def _init_meta(self) -> None:
        """Stamp (or verify) the schema/codec versions."""
        with self._lock:
            row = self._conn.execute(
                "SELECT value FROM meta WHERE key='schema'").fetchone()
            if row is None:
                self._conn.executemany(
                    "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
                    [("schema", str(SCHEMA_VERSION)),
                     ("codec", str(codec.CODEC_VERSION))])
            elif row[0] != str(SCHEMA_VERSION):
                raise StoreError(
                    f"{self.path}: store schema version {row[0]} != "
                    f"supported {SCHEMA_VERSION}")

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Close the underlying connection (idempotent)."""
        with self._lock:
            if self._conn is not None:
                self._conn.close()
                self._conn = None  # type: ignore[assignment]

    def __enter__(self) -> "Store":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- databases -----------------------------------------------------------

    def record_database(self, fingerprint: str, name: str, kind: str,
                        spec: dict | None = None,
                        snapshot: dict | None = None) -> None:
        """Upsert one database row (provenance for the memo entries).

        ``spec`` is the declarative construction recipe (a
        :meth:`~repro.serve.config.DatabaseSpec.to_dict` dict);
        ``snapshot`` the optional :func:`repro.symmetric.serialize.
        snapshot` of the finite core.
        """
        with self._lock:
            self._conn.execute(
                "INSERT OR REPLACE INTO databases "
                "(fingerprint, name, kind, spec, snapshot, created_s) "
                "VALUES (?, ?, ?, ?, ?, ?)",
                (fingerprint, name, kind,
                 json.dumps(spec or {}, sort_keys=True),
                 json.dumps(snapshot, sort_keys=True)
                 if snapshot is not None else None,
                 time.time()))

    def databases(self) -> list[dict]:
        """Every recorded database: name, kind, fingerprint, spec."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT fingerprint, name, kind, spec FROM databases "
                "ORDER BY name").fetchall()
        return [{"fingerprint": f, "name": n, "kind": k,
                 "spec": json.loads(s)} for f, n, k, s in rows]

    # -- writing results -----------------------------------------------------

    def put_value(self, fingerprint: str, plan, value,
                  args: tuple = ()) -> bool:
        """Persist one completed result-cache entry.

        Returns ``False`` (and stores nothing) when the plan or the
        value is unserializable — ``MachineFixpoint`` entries and
        foreign value types are skipped, never errors.
        """
        try:
            plan_text = codec.canonical_plan_text(plan)
            args_text = codec.args_to_json(args)
            value_text = json.dumps(codec.value_to_json(value),
                                    sort_keys=True,
                                    separators=(",", ":"))
        except RepresentationError:
            return False
        self.insert_value_row(fingerprint, plan_text, args_text,
                              value_text)
        return True

    def put_verdict(self, fingerprint: str, plan, verdict: Verdict,
                    max_steps: int | None) -> bool:
        """Persist one verdict under the budget-class discipline.

        * completed verdicts carrying a value are stored as values
          (budget-independent);
        * ``UNKNOWN(out_of_fuel)`` is stored under class
          ``budget_class(max_steps)`` — replayable only at equal or
          smaller budgets;
        * ``UNKNOWN(deadline)`` / ``UNKNOWN(cancelled)`` are transient
          and refused.

        Returns whether anything was persisted.
        """
        if verdict.known:
            if verdict.value is None:
                return False
            return self.put_value(fingerprint, plan, verdict.value)
        if verdict.reason != "out_of_fuel" or max_steps is None:
            # Deadline/cancellation replay would be unsound (transient
            # causes); an unbounded budget cannot run out of fuel, so
            # an "inf"-class UNKNOWN row would be contradictory.
            return False
        try:
            plan_text = codec.canonical_plan_text(plan)
        except RepresentationError:
            return False
        self.insert_verdict_row(fingerprint, plan_text,
                                codec.budget_class(max_steps),
                                verdict.reason, verdict.steps)
        return True

    def insert_value_row(self, fingerprint: str, plan_text: str,
                         args_text: str, value_text: str) -> None:
        """Insert one pre-encoded completed row (the ingest bulk path).

        Worker processes ship results as canonical JSON text
        (:mod:`repro.store.codec` output); the parent — the sole sqlite
        writer of an ingest run — lands them without re-decoding.  The
        plan hash is recomputed here from the canonical text, keeping
        the text↔hash pairing an invariant of this module.
        """
        self._write_row(fingerprint, plan_text, args_text, ANY_BUDGET,
                        "value", None, None, value_text)

    def insert_verdict_row(self, fingerprint: str, plan_text: str,
                           cls: str, reason: str,
                           steps: int | None) -> None:
        """Insert one pre-encoded UNKNOWN row (the ingest bulk path).

        The caller vouches that ``reason`` is ``out_of_fuel`` and
        ``cls`` the finite budget class it was computed under — the
        same discipline :meth:`put_verdict` enforces for live verdicts.
        """
        self._write_row(fingerprint, plan_text, codec.args_to_json(()),
                        cls, "unknown", reason, steps, None)

    def _write_row(self, fingerprint: str, plan_text: str,
                   args_text: str, cls: str, status: str,
                   reason: str | None, steps: int | None,
                   value_text: str | None) -> None:
        """Upsert one ``plans`` row and one ``results`` row in a single
        transaction, hashing the canonical plan text once."""
        phash = codec.text_hash(plan_text)
        with self._lock, self._conn:
            self._conn.execute("BEGIN IMMEDIATE")
            self._conn.execute(
                "INSERT OR REPLACE INTO plans (plan_hash, plan) "
                "VALUES (?, ?)", (phash, plan_text))
            self._conn.execute(
                "INSERT OR REPLACE INTO results (fingerprint, plan_hash, "
                "args, budget_class, status, reason, steps, value) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                (fingerprint, phash, args_text, cls, status, reason,
                 steps, value_text))

    # -- reading results -----------------------------------------------------

    def lookup_value(self, fingerprint: str, plan,
                     args: tuple = ()) -> Any:
        """The stored completed value for one cache key, or ``None``."""
        try:
            phash = codec.plan_hash(plan)
            args_text = codec.args_to_json(args)
        except RepresentationError:
            return None
        with self._lock:
            row = self._conn.execute(
                "SELECT value FROM results WHERE fingerprint=? AND "
                "plan_hash=? AND args=? AND budget_class=?",
                (fingerprint, phash, args_text, ANY_BUDGET)).fetchone()
        if row is None:
            return None
        return codec.value_from_json(json.loads(row[0]))

    def lookup_verdict(self, fingerprint: str, plan,
                       max_steps: int | None) -> Verdict | None:
        """The replayable verdict for one request, or ``None``.

        The budget-compatibility audit happens here — the single place
        persisted answers re-enter the engine:

        * a completed value answers any budget (``TRUE``/``FALSE``
          verdict rebuilt with the value attached);
        * an ``UNKNOWN(out_of_fuel)`` row answers only when the
          request's ``max_steps`` is **at most** the row's recorded
          class — a larger (or unbounded) budget must recompute, since
          it might complete.

        The plan is encoded once, and one ``SELECT`` reads the key's
        value row and its UNKNOWN rows together.
        """
        try:
            phash = codec.plan_hash(plan)
        except RepresentationError:
            return None
        with self._lock:
            rows = self._conn.execute(
                "SELECT budget_class, status, reason, steps, value "
                "FROM results WHERE fingerprint=? AND plan_hash=? AND "
                "args=?",
                (fingerprint, phash, codec.args_to_json(()))).fetchall()
        for cls, __, __, __, value_text in rows:
            if cls == ANY_BUDGET:
                value = codec.value_from_json(json.loads(value_text))
                return Verdict.of(_truth(value), value=value)
        if max_steps is None:
            return None  # unbounded request: no finite UNKNOWN applies
        for cls, status, reason, steps, __ in rows:
            if status != "unknown":
                continue
            recorded = codec.budget_class_steps(cls)
            if recorded is None or max_steps <= recorded:
                return Verdict.unknown(reason, steps=steps)
        return None

    # -- whole-cache snapshot and reload -------------------------------------

    def snapshot_cache(self, cache: EngineCache) -> dict:
        """Persist every serializable entry of a live result cache.

        Returns ``{"persisted": n, "skipped": m}`` — skipped entries
        are ``MachineFixpoint`` keys and foreign value types, by
        design, not errors.
        """
        persisted = skipped = 0
        for key, value in cache.results.items():
            fingerprint, plan, args = key
            if self.put_value(fingerprint, plan, value, args=args):
                persisted += 1
            else:
                skipped += 1
        return {"persisted": persisted, "skipped": skipped}

    def load_results(self, cache: EngineCache) -> dict:
        """Reload every completed value into a live result cache.

        The inverse of :meth:`snapshot_cache`: decoded plans are
        structurally equal to the engine's prepared plans, so the
        reloaded keys are exactly the keys warm requests probe.
        UNKNOWN rows are *not* loaded — the in-memory cache has no
        budget-class column, so they answer only through
        :meth:`lookup_verdict`, where the compatibility check lives.

        Returns ``{"loaded": n, "skipped": m}``.
        """
        with self._lock:
            rows = self._conn.execute(
                "SELECT r.fingerprint, p.plan, r.args, r.value "
                "FROM results r JOIN plans p ON p.plan_hash = r.plan_hash "
                "WHERE r.status = 'value'").fetchall()
        loaded = skipped = 0
        for fingerprint, plan_text, args_text, value_text in rows:
            try:
                plan = codec.plan_from_json(json.loads(plan_text))
                args = codec.args_from_json(args_text)
                value = codec.value_from_json(json.loads(value_text))
            except (RepresentationError, ValueError, KeyError):
                skipped += 1
                continue
            cache.results.put(
                ResultCache.key(fingerprint, plan, args), value)
            loaded += 1
        return {"loaded": loaded, "skipped": skipped}

    # -- observability -------------------------------------------------------

    def counts(self) -> dict:
        """Row counts per table (the ``/stats`` store section)."""
        with self._lock:
            databases = self._conn.execute(
                "SELECT COUNT(*) FROM databases").fetchone()[0]
            plans = self._conn.execute(
                "SELECT COUNT(*) FROM plans").fetchone()[0]
            values = self._conn.execute(
                "SELECT COUNT(*) FROM results WHERE status='value'"
            ).fetchone()[0]
            verdicts = self._conn.execute(
                "SELECT COUNT(*) FROM results WHERE status='unknown'"
            ).fetchone()[0]
        return {"databases": databases, "plans": plans,
                "values": values, "verdicts": verdicts}
