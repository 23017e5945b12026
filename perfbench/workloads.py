"""Seeded inputs of the four served-traffic workloads, and their verdicts.

A query is ``(database, frontend, text)`` over the default serving
catalog; the server receives only that, never a workload name.
Generated queries come from :mod:`repro.check.generators`, bounded the
way ``gen_case`` bounds them for rado -- FO sentences of depth 4 with
at most 2 quantifiers, core QLhs terms of depth 3 -- because depth-4
rado sentences with 3 quantifiers can take gigabytes.

Expected verdicts come from the reference interpreter, a fresh
``Engine(db, optimize=False, compiled=False)`` per query at the
tenant's step budget, and are computed outside every timed window.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.check.generators import BUILTIN_HSDBS, gen_sentence, gen_term
from repro.check.serve import QUERY_POOL
from repro.engine import Engine, lower_all
from repro.engine.frontends import FCF_ROUTES
from repro.errors import ParseError
from repro.logic import parse as parse_formula
from repro.logic.printer import to_text
from repro.qlhs import ast as q
from repro.qlhs.parser import parse_program, parse_term
from repro.qlhs.printer import program_to_text, term_to_text
from repro.serve.catalog import Catalog
from repro.serve.config import config_from_dict, default_config
from repro.trace import Budget

#: The default tenant's step budget per request: far above what a
#: completing generated query needs, small enough that a diverging
#: program ends in UNKNOWN(out_of_fuel) within a fraction of a second.
MAX_STEPS = 100_000
#: Wall-clock safety net per request; an UNKNOWN(deadline) is a failure.
DEADLINE_S = 20.0
#: Client connections of the ``/eval`` workloads.
CONNECTIONS = 2
#: Queries per ``/eval_batch`` request.
BATCH_SIZE = 8
#: Share of ``serve_store`` requests that repeat a pool query.
STORE_REPEAT = 0.8
#: Ranks of generated QLhs terms.
TERM_RANKS = (0, 1, 2)
#: Diverging QLhs programs in the ``serve_store`` pool.
DIVERGING = 8

#: Generated pool queries per ``(database, frontend)``, added to the 18
#: ``QUERY_POOL`` rows: every frontend, every database.
POOL_MIX = (
    ("clique", "fo", 30), ("rado", "fo", 30),
    ("triangles", "fo", 30), ("k3k2", "fo", 30),
    ("clique", "qlhs", 10), ("rado", "qlhs", 10),
    ("triangles", "qlhs", 10), ("k3k2", "qlhs", 10),
    ("clique", "gmhs", 2), ("k3k2", "gmhs", 2),
    ("pair", "fo", 6), ("pair", "qlhs", 5), ("pair", "qlf", 5),
)

#: Novel traffic: FO sentences and QLhs terms over the builtin hs
#: databases.  An FO sentence costs about ten times a term, so three
#: sentences to one term put the latency median inside the FO mode,
#: not on the edge between the two modes, where it would jump.
NOVEL_MIX = tuple((database, frontend) for database in BUILTIN_HSDBS
                  for frontend in ("fo", "fo", "fo", "qlhs"))

#: Novel ``serve_store`` traffic: QLhs terms alone.  They cost a tenth
#: of an FO sentence, whose optimizer time would otherwise be most of
#: the workload, so the store's reads and write-throughs keep a large
#: share of it.
STORE_MIX = tuple((database, "qlhs") for database in BUILTIN_HSDBS)


def server_config(workers: int) -> dict:
    """The one config every workload serves: the default catalog,
    ``workers`` serve threads and shard processes, and a default tenant
    whose step budget ends diverging programs in UNKNOWN."""
    return {
        "databases": default_config().to_dict()["databases"],
        "tenants": {"default": {"max_steps": MAX_STEPS,
                                "deadline_s": DEADLINE_S}},
        "server": {"default_tenant": "default", "workers": workers},
    }


def generate(rng: random.Random, frontend: str, signature: tuple) -> str:
    """One generated query text for ``frontend``."""
    if frontend in ("fo", "gmhs"):
        return to_text(gen_sentence(rng, signature, depth=4, quantifiers=2))
    # E and up() are Df-relative in QLf+, so qlf terms leave them out,
    # as gen_case does.
    core = frontend != "qlf"
    return term_to_text(gen_term(rng, signature, rng.choice(TERM_RANKS),
                                 depth=3, allow_e=core, allow_up=core))


class Reference:
    """Expected verdicts from the reference interpreter, over the same
    databases the server builds."""

    def __init__(self, config: dict):
        self.catalog = Catalog(config_from_dict(config))
        self.max_steps = config["tenants"]["default"]["max_steps"]
        self._verdicts: dict[tuple, tuple] = {}

    def signature(self, database: str) -> tuple:
        return self.catalog.engine(database).signature

    def verdict(self, query: tuple) -> tuple:
        """``(status, reason)`` of one query (memoized)."""
        if query not in self._verdicts:
            self._verdicts[query] = self._evaluate(*query)
        return self._verdicts[query]

    def _evaluate(self, database: str, frontend: str, text: str) -> tuple:
        view = "fcf" if frontend in FCF_ROUTES else "hs"
        engine = Engine(self.catalog.engine(database, view).db,
                        optimize=False, compiled=False)
        if frontend in ("fo", "gmhs"):
            plans = lower_all(parse_formula(text), engine.signature,
                              include_gmhs=frontend == "gmhs")
        else:
            try:
                parsed = parse_term(text)
            except ParseError:
                parsed = parse_program(text)
            plans = lower_all(parsed, engine.signature,
                              include_qlf=frontend == "qlf")
        verdict = engine.eval(plans[frontend], budget=Budget(
            self.max_steps, deadline=DEADLINE_S))
        return verdict.status, verdict.reason


class Stream:
    """Generated queries in a seeded order, none twice and none from
    ``exclude``."""

    def __init__(self, seed: int, label: str, reference: Reference,
                 exclude=(), mix: tuple = NOVEL_MIX):
        self._rng = random.Random(f"{seed}/{label}")
        self._reference = reference
        self._seen = set(exclude)
        self._mix = mix

    def next(self, database: str | None = None,
             frontend: str | None = None) -> tuple:
        """The next query, for ``(database, frontend)`` or a random pair
        of the stream's mix."""
        if database is None:
            database, frontend = self._rng.choice(self._mix)
        signature = self._reference.signature(database)
        for __ in range(10_000):
            query = (database, frontend,
                     generate(self._rng, frontend, signature))
            if query not in self._seen:
                self._seen.add(query)
                return query
        raise RuntimeError(f"no new {frontend} query for {database}")

    def __iter__(self) -> Iterator[tuple]:
        while True:
            yield self.next()


def completing_pool(seed: int, reference: Reference) -> list:
    """``QUERY_POOL`` plus the :data:`POOL_MIX` generated queries, all of
    which the reference interpreter completes."""
    stream = Stream(seed, "pool", reference, exclude=QUERY_POOL)
    pool = [query for query in QUERY_POOL
            if reference.verdict(query)[0] != "unknown"]
    for database, frontend, count in POOL_MIX:
        drawn = (stream.next(database, frontend) for __ in range(20 * count))
        pool += itertools.islice(
            (query for query in drawn
             if reference.verdict(query)[0] != "unknown"), count)
    return pool


def diverging_programs(seed: int, reference: Reference) -> list:
    """QLhs programs whose loop never ends; once stored, only their
    budget-classed UNKNOWN rows answer them."""
    rng = random.Random(f"{seed}/diverging")
    loop = q.WhileEmpty("Y5", q.Assign("Y6", q.Comp(q.VarT("Y6"))))
    programs = []
    for index in range(DIVERGING):
        database = BUILTIN_HSDBS[index % len(BUILTIN_HSDBS)]
        term = gen_term(rng, reference.signature(database),
                        rng.choice(TERM_RANKS), depth=2)
        programs.append((database, "qlhs", program_to_text(
            q.seq(q.Assign("Y1", term), loop))))
    return list(dict.fromkeys(programs))


@dataclass
class Workload:
    """What one workload sends.  Items are queries for ``/eval`` and
    ``(database, frontend, texts)`` batches for ``/eval_batch``."""

    endpoint: str
    connections: int
    #: Measured queries after which the server's memory is read.
    rss_after: int
    #: Played once by every set-up.
    warmup: list
    #: A fresh, endless item iterator; every call yields the same items.
    measured: Callable[[], Iterator]
    #: Played into the store file by an earlier server lifetime.
    fill: list = field(default_factory=list)


def _repeats(rng: random.Random, pool: list) -> Iterator[tuple]:
    while True:
        yield pool[rng.randrange(len(pool))]


def build(name: str, seed: int, reference: Reference,
          connections: int) -> Workload:
    """The named workload's inputs for ``seed``."""
    if name == "serve_hot":
        pool = completing_pool(seed, reference)
        return Workload("/eval", connections, 4000, pool, lambda: _repeats(
            random.Random(f"{seed}/hot"), pool))
    if name == "serve_cold":
        stream = Stream(seed, "warmup", reference)
        # Builds every database and its tree levels up to rank 3
        # without warming any measured query.
        warm = [stream.next(database, frontend)
                for database, frontend in dict.fromkeys(NOVEL_MIX)
                for __ in range(5)]
        warm += [(database, "qlhs", "down(up(R1))")
                 for database in BUILTIN_HSDBS]
        return Workload("/eval", connections, 1000, warm, lambda: iter(
            Stream(seed, "cold", reference, exclude=warm)))
    if name == "serve_store":
        pool = completing_pool(seed, reference)
        pool += diverging_programs(seed, reference)

        def mixed() -> Iterator[tuple]:
            rng = random.Random(f"{seed}/store")
            novel = Stream(seed, "store", reference, exclude=pool,
                           mix=STORE_MIX)
            while True:
                yield (pool[rng.randrange(len(pool))]
                       if rng.random() < STORE_REPEAT else novel.next())

        return Workload("/eval", connections, 2000, pool, mixed, fill=pool)
    if name == "serve_batch":
        # FO sentences only, one database after another: members heavy
        # enough for shipping to pay, and batches of one cost mode.
        stream = Stream(seed, "warmup", reference)
        warm = [(database, "fo", tuple(stream.next(database, "fo")[2]
                                       for __ in range(BATCH_SIZE)))
                for database in BUILTIN_HSDBS]
        sent = [(database, "fo", text)
                for database, __, texts in warm for text in texts]

        def batches() -> Iterator[tuple]:
            novel = Stream(seed, "batch", reference, exclude=sent)
            for database in itertools.cycle(BUILTIN_HSDBS):
                yield database, "fo", tuple(novel.next(database, "fo")[2]
                                            for __ in range(BATCH_SIZE))

        return Workload("/eval_batch", 1, 800, warm, batches)
    raise ValueError(f"unknown workload {name!r}")
