"""The serve-aware differential oracle: HTTP answers must equal
in-process ``Engine.eval`` answers.

The serving tier adds an HTTP layer, a thread pool, tenant admission,
and a shared cross-database cache between the client and the engine —
four places a verdict could silently diverge.  This oracle closes the
loop: a seeded sample of queries is sent to a real server
(`repro.serve.start_in_thread` + `ServeClient`) and also evaluated
through a fresh in-process :class:`~repro.engine.Engine` with the same
per-request step allowance, and every served three-valued verdict must
agree **bit-for-bit** on ``(status, reason)`` with the in-process one.
Each query is sent twice: the first (``cold``) pass evaluates on the
server's pool, the second (``warm``) is answered from its memos on the
event loop, so both serving paths face the oracle.

Used three ways:

* ``tests/test_serve/test_differential.py`` runs it in the tier-1
  suite on a small sample;
* ``benchmarks/bench_e19_serve.py`` runs it as the correctness gate of
  the E19 load experiment;
* the CI ``serve-smoke`` job runs it against a freshly started server.
"""

from __future__ import annotations

import random

from ..engine import Engine, lower_all
from ..engine.frontends import FCF_ROUTES
from ..logic import parse as parse_formula
from ..qlhs.parser import parse_program, parse_term
from ..serve.catalog import Catalog
from ..serve.client import ServeClient
from ..serve.config import ServeConfig, default_config
from ..trace import Budget, limits

#: The deterministic query pool: ``(database, frontend, text)`` rows
#: over the default catalog.  Spans all four frontends, every verdict
#: status (the last fo row diverges and must come back UNKNOWN under
#: any finite budget), and both database views.
QUERY_POOL = (
    ("rado", "fo", "exists x. exists y. R1(x, y)"),
    ("rado", "fo", "exists x. R1(x, x)"),
    ("rado", "fo", "forall x. exists y. R1(x, y)"),
    ("rado", "fo", "forall x. forall y. R1(x, y)"),
    ("rado", "gmhs", "exists x. R1(x, x)"),
    ("rado", "qlhs", "R1 & !R1"),
    ("rado", "qlhs", "swap(R1)"),
    ("rado", "qlhs", "down(R1 & E)"),
    ("clique", "fo", "forall x. forall y. (R1(x, y) or x = y)"),
    ("clique", "qlhs", "R1 & E"),
    ("triangles", "fo", "exists x. forall y. R1(x, y)"),
    ("triangles", "gmhs", "forall x. exists y. R1(x, y)"),
    ("k3k2", "fo", "exists x. exists y. (R1(x, y) and x != y)"),
    ("k3k2", "qlhs", "up(R1)"),
    ("pair", "qlf", "R1 & swap(R1)"),
    ("pair", "qlf", "R2"),
    ("pair", "qlf", "!R2"),
    ("pair", "fo", "exists x. R2(x)"),
)


def reference_verdict(catalog: Catalog, database: str, frontend: str,
                      text: str, max_steps: int) -> tuple:
    """The in-process answer: a fresh engine over the same database,
    same route, same step allowance.  Returns ``(status, reason)``."""
    view = "fcf" if frontend in FCF_ROUTES else "hs"
    db = catalog.engine(database, view).db
    engine = Engine(db)
    if frontend in ("fo", "gmhs"):
        query = parse_formula(text)
        plans = lower_all(query, engine.signature,
                          include_gmhs=(frontend == "gmhs"))
    else:
        try:
            query = parse_term(text)
        except Exception:
            query = parse_program(text)
        plans = lower_all(query, engine.signature,
                          include_qlf=(frontend == "qlf"))
    verdict = engine.eval(plans[frontend],
                          budget=Budget(max_steps=max_steps))
    return verdict.status, verdict.reason


def run_serve_check(base_url: str, *,
                    config: ServeConfig | None = None,
                    sample: int | None = None,
                    seed: int = 0,
                    tenant: str | None = None) -> dict:
    """Differentially check a running server against in-process
    evaluation.

    Parameters
    ----------
    base_url:
        The server to interrogate (e.g. ``handle.base_url``).
    config:
        The catalog config the server was started with (the default
        config when omitted) — needed to rebuild the databases
        in-process.
    sample:
        How many pool rows to check (seeded shuffle; all when
        ``None``).
    seed / tenant:
        Shuffle seed and the tenant to evaluate as.

    Returns a JSON-safe report::

        {"cases": N, "agreements": N, "disagreements": [...]}

    Every row is sent twice; it agrees only when both answers agree.
    ``disagreements`` rows carry the query, its ``pass`` (``cold`` or
    ``warm``) and both verdicts; an empty list is the acceptance
    criterion.
    """
    config = config if config is not None else default_config()
    catalog = Catalog(config)
    client = ServeClient(base_url)
    max_steps = (config.tenant(tenant).max_steps if tenant is not None
                 else config.tenant(config.default_tenant).max_steps)

    # Only pool rows the served catalog can answer: a custom config
    # may declare a subset of the default databases, and rows it
    # cannot serve are out of scope, not failures.
    declared = {spec.name for spec in config.databases}
    rows = [row for row in QUERY_POOL if row[0] in declared]
    rng = random.Random(seed)
    rng.shuffle(rows)
    if sample is not None:
        rows = rows[:sample]

    agreements = 0
    disagreements = []
    for database, frontend, text in rows:
        expected = reference_verdict(catalog, database, frontend, text,
                                     max_steps)
        agreed = True
        for pass_name in ("cold", "warm"):
            served = client.eval(database, text, frontend=frontend,
                                 tenant=tenant)
            got = (served["status"], served["reason"])
            if got != expected:
                agreed = False
                disagreements.append({
                    "database": database, "frontend": frontend,
                    "query": text, "pass": pass_name,
                    "served": list(got), "in_process": list(expected)})
        agreements += agreed
    return {"cases": len(rows), "agreements": agreements,
            "disagreements": disagreements}


def default_max_steps() -> int:
    """The pool's reference step allowance (the registry knob)."""
    return limits.SERVE_REQUEST
