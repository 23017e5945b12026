"""Bulk ingestion: construct, fingerprint, warm, and persist databases.

``python -m repro ingest MANIFEST`` drives this module — the
manifest-driven bulk-build shape of the related ``sourmash sketch
fromfile`` pipeline (PAPERS.md): a JSON manifest declares *what* should
exist (hundreds of hs/fcf/finite databases, spelled exactly like the
``databases`` table of a serving config), and the pipeline makes the
store agree, constructing each database, fingerprinting it, compiling
and evaluating its warm-up queries under an :data:`~repro.trace.limits.
INGEST_DB` step budget, and landing everything in one WAL-mode sqlite
:class:`~repro.store.backend.Store`.

Process topology: each worker builds its databases against a private
:class:`~repro.engine.cache.EngineCache` and returns a **JSON-safe
payload** — pre-encoded result rows plus an
:class:`~repro.engine.stats.EngineStats` dict.  The parent is the sole
sqlite writer: it lands the rows at the join, merges the stats with
:meth:`EngineStats.merge <repro.engine.stats.EngineStats.merge>`, and
records one ``store.ingest.db`` child span per database, annotated
with that worker's counters — so the trace shows the fleet's work
nested under the one ``store.ingest`` root even though the work
happened in other processes.

Manifest schema::

    {
      "databases": {"name": {"kind": "builtin", "source": "rado"}, ...},
      "warm": [{"database": "*", "frontend": "fo", "text": "..."}, ...]
    }

``warm`` is optional; entries whose ``database`` is ``"*"`` (or
omitted) apply to every database.  When a database ends up with no
applicable warm queries, signature-derived defaults are generated (an
existential and a universal probe per relation), so every ingested
database contributes warm entries rather than just a fingerprint.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from ..engine.shard import WorkerPool
from ..engine.stats import EngineStats
from ..errors import TypeSignatureError
from ..trace import limits
from ..trace.spans import span
from . import codec
from .backend import Store


class ManifestError(TypeSignatureError):
    """A malformed ingestion manifest."""


def load_manifest(path: str | Path) -> dict:
    """Load and shape-check a manifest file (JSON).

    Returns ``{"databases": {name: entry}, "warm": [...]}`` with both
    keys present; raises :class:`ManifestError` on malformed input.
    """
    path = Path(path)
    try:
        data = json.loads(path.read_bytes().decode("utf-8"))
    except OSError as exc:
        raise ManifestError(f"{path}: cannot read: {exc.strerror}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ManifestError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(data, dict) or not isinstance(
            data.get("databases"), dict) or not data["databases"]:
        raise ManifestError(
            f"{path}: manifest needs a non-empty 'databases' object")
    warm = data.get("warm", [])
    if not isinstance(warm, list):
        raise ManifestError(f"{path}: 'warm' must be a list")
    for entry in warm:
        if not isinstance(entry, dict) or "text" not in entry:
            raise ManifestError(
                f"{path}: each warm entry needs at least 'text' "
                f"(got {entry!r})")
    return {"databases": data["databases"], "warm": warm}


def default_warm_queries(signature) -> list[tuple[str, str]]:
    """Signature-derived warm-up queries: ``(frontend, text)`` pairs.

    One existential probe per relation plus one universal probe for the
    first relation — enough to exercise quantifier plans and populate
    the store with both completed values and (for hard databases)
    budget-classed UNKNOWNs.
    """
    queries: list[tuple[str, str]] = []
    for i, arity in enumerate(signature):
        if arity < 1:
            continue
        xs = [f"x{j + 1}" for j in range(arity)]
        body = f"R{i + 1}({', '.join(xs)})"
        exists = " ".join(f"exists {x}." for x in xs)
        queries.append(("fo", f"{exists} {body}"))
        if i == 0:
            foralls = " ".join(f"forall {x}." for x in xs)
            queries.append(("fo", f"{foralls} {body}"))
    return queries


def _worker_config(name: str, entry: dict, optimize: bool,
                   compiled: bool):
    """A one-database serving config for the worker's private catalog."""
    from ..serve.config import config_from_dict
    return config_from_dict({
        "databases": {name: entry},
        "server": {"optimize": optimize, "compiled": compiled}})


def _ingest_worker(task: tuple) -> dict:
    """Build, warm, and encode one database (runs in a worker process).

    ``task`` is ``(name, entry, warm, budget_steps, optimize,
    compiled)`` — all JSON-safe so the tuple pickles trivially.  The
    return payload is JSON-safe too: the worker does *all* the
    encoding, the parent does *all* the sqlite writing.
    """
    from ..engine.cache import EngineCache
    from ..serve.catalog import Catalog
    from ..symmetric.serialize import snapshot
    from ..trace.budget import Budget

    name, entry, warm, budget_steps, optimize, compiled = task
    config = _worker_config(name, entry, optimize, compiled)
    catalog = Catalog(config, cache=EngineCache())
    engine = catalog.engine(name, "hs")
    spec = config.database(name)

    queries = [(e.get("frontend", "fo"), e["text"]) for e in warm]
    if not queries:
        queries = default_warm_queries(engine.signature)

    verdict_rows: list[list] = []
    statuses: dict[str, int] = {}
    for frontend, text in queries:
        eng, plan = catalog.compile(name, frontend, text)
        verdict = eng.eval(plan, budget=Budget(max_steps=budget_steps))
        statuses[verdict.status] = statuses.get(verdict.status, 0) + 1
        if verdict.is_unknown and verdict.reason == "out_of_fuel":
            prepared = eng.prepare(plan)
            try:
                verdict_rows.append([
                    eng.fingerprint,
                    codec.canonical_plan_text(prepared),
                    codec.budget_class(budget_steps),
                    verdict.reason, verdict.steps])
            except codec.StoreCodecError:
                pass

    value_rows: list[list] = []
    skipped = 0
    for key, value in catalog.cache.results.items():
        fingerprint, plan, args = key
        try:
            value_rows.append([
                fingerprint,
                codec.canonical_plan_text(plan),
                codec.args_to_json(args),
                json.dumps(codec.value_to_json(value), sort_keys=True,
                           separators=(",", ":"))])
        except codec.StoreCodecError:
            skipped += 1

    snap = None
    if spec.kind == "finite":
        depth = max(engine.signature, default=0)
        snap = snapshot(engine.db, max(depth, 2))

    return {
        "name": name, "kind": spec.kind,
        "fingerprint": engine.fingerprint,
        "spec": spec.to_dict(), "snapshot": snap,
        "values": value_rows, "verdicts": verdict_rows,
        "queries": len(queries), "statuses": statuses,
        "skipped": skipped, "stats": engine.stats().to_dict(),
    }


@dataclass
class IngestReport:
    """What one :func:`ingest_manifest` run accomplished."""

    databases: list = field(default_factory=list)
    values: int = 0
    verdicts: int = 0
    skipped: int = 0
    queries: int = 0
    stats: EngineStats = field(default_factory=EngineStats)
    store_counts: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """A JSON-safe summary (the CLI's ``ingest`` output)."""
        return {"databases": list(self.databases),
                "values": self.values, "verdicts": self.verdicts,
                "skipped": self.skipped, "queries": self.queries,
                "stats": self.stats.to_dict(),
                "store": dict(self.store_counts)}


def ingest_manifest(manifest: dict, store_path: str | Path, *,
                    workers: int = 1,
                    budget_steps: int = limits.INGEST_DB,
                    optimize: bool = True,
                    compiled: bool = True) -> IngestReport:
    """Run the whole pipeline: every manifest database into the store.

    ``manifest`` is :func:`load_manifest` output (or an equivalent
    dict).  ``workers > 1`` fans the per-database work out over the
    engine's shared :class:`~repro.engine.shard.WorkerPool` (which
    runs in-process for one worker or one task); the parent stays the
    sole sqlite writer either way, so WAL never sees competing ingest
    writers from one run.  ``budget_steps`` bounds each warm query
    (:data:`~repro.trace.limits.INGEST_DB`); queries that trip it
    persist as ``UNKNOWN(out_of_fuel)`` rows in that budget class.
    """
    databases = manifest["databases"]
    warm = manifest.get("warm", [])
    tasks = []
    for name, entry in databases.items():
        applicable = [e for e in warm
                      if e.get("database", "*") in ("*", name)]
        tasks.append((name, entry, applicable, budget_steps,
                      optimize, compiled))

    report = IngestReport(stats=EngineStats())
    with Store(store_path) as store, \
            span("store.ingest", databases=len(tasks),
                 workers=workers) as root:
        with WorkerPool(workers) as pool:
            payloads = pool.map(_ingest_worker, tasks)

        for payload in payloads:
            with span("store.ingest.db", database=payload["name"],
                      kind=payload["kind"],
                      fingerprint=payload["fingerprint"]) as sp:
                store.record_database(
                    payload["fingerprint"], payload["name"],
                    payload["kind"], spec=payload["spec"],
                    snapshot=payload["snapshot"])
                for fp, plan_text, args_text, value_text in \
                        payload["values"]:
                    store.insert_value_row(fp, plan_text, args_text,
                                           value_text)
                for fp, plan_text, cls, reason, steps in \
                        payload["verdicts"]:
                    store.insert_verdict_row(fp, plan_text, cls,
                                             reason, steps)
                sp.count("values", len(payload["values"]))
                sp.count("verdicts", len(payload["verdicts"]))
                sp.count("queries", payload["queries"])
                sp.count("skipped", payload["skipped"])
                sp.set(statuses=payload["statuses"])
            report.databases.append(payload["name"])
            report.values += len(payload["values"])
            report.verdicts += len(payload["verdicts"])
            report.skipped += payload["skipped"]
            report.queries += payload["queries"]
            report.stats = report.stats.merge(
                EngineStats.from_dict(payload["stats"]))
        report.store_counts = store.counts()
        root.count("values", report.values)
        root.count("verdicts", report.verdicts)
    return report
