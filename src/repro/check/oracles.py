"""Differential and metamorphic oracles over the four frontends.

Each oracle takes a built :class:`CaseContext` and returns an
:class:`OracleOutcome` — ``ok``, ``fail`` (a real disagreement),
``unknown`` (every route abstained, nothing to compare), or ``skip``
(oracle not applicable to the case kind).  The comparison discipline is
the *approximation soundness* of the three-valued
:class:`~repro.engine.verdict.Verdict` contract: an ``UNKNOWN`` route
abstains — it can neither mask nor manufacture a TRUE/FALSE
disagreement (:meth:`Verdict.agrees
<repro.engine.verdict.Verdict.agrees>`).

The oracles:

``differential``
    Lowers one semantic query through **every applicable frontend**
    (:func:`repro.engine.frontends.lower_all` plus the direct
    evaluators that predate the engine) and demands verdict agreement
    modulo ``UNKNOWN``; for open queries it additionally compares
    pointwise membership on a fixed probe set.
``permutation``
    Genericity (Definition 2.5, the paper's core invariant): queries
    are constant-free, so a random domain permutation ``σ`` must
    satisfy ``u ∈ Q(B) ⇔ σ(u) ∈ Q(σB)``.
``cache``
    Cold engine == warm engine == fresh-cache engine — the
    fingerprint-keyed cache may never change an answer.
``budget``
    Budget monotonicity: more fuel never flips TRUE↔FALSE, and an
    answer known under a small budget stays known under a larger one.
``rewrites``
    Double negation, implication elimination, and NNF/De Morgan
    rewrites (and double complement on terms) preserve verdicts.
``optimizer``
    The three execution configurations of the hs engine — naive
    interpreter, optimized plan, optimized + compiled closures
    (:mod:`repro.engine.optimize` / :mod:`repro.engine.compile`) —
    agree bit for bit: same verdict, same canonical value, same probe
    memberships.
``shard``
    Sequential == process-pool: the
    :class:`~repro.engine.shard.ShardExecutor` ships the case's
    database spec and serializable route plans to worker processes,
    and the merged verdicts must agree with the in-process routes
    modulo ``UNKNOWN`` (one lazily started two-worker pool is shared
    by the whole campaign; a ``--workers`` campaign runs it inline).
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field

from ..engine import Engine, lower_all, plan_from_term
from ..engine.frontends import FCF_ROUTES
from ..errors import OutOfFuel, RepresentationError
from ..fcf.qlf import QLfInterpreter
from ..fcf.relation import FcfValue
from ..logic import syntax as fo
from ..logic.evaluator import evaluate as fo_evaluate
from ..logic.transform import eliminate_implications, nnf
from ..qlhs import ast as q
from ..qlhs.interpreter import QLhsInterpreter
from ..trace import Budget, limits
from ..engine.verdict import Verdict, truth
from .generators import (
    Case,
    builtin_hsdb,
    gen_permutation,
    permute_fcf_spec,
    permute_tuple,
)

#: Default per-evaluation step allowance inside the checker
#: (registered in :data:`repro.trace.limits.REGISTRY`).
DEFAULT_CASE_STEPS = limits.CHECK_CASE

#: Abstention reason when a QLf+ route leaves the finite/co-finite
#: representation class (``↑`` of a co-finite value, §4) — a documented
#: partiality of the frontend, not a disagreement.
UNREPRESENTABLE = "unrepresentable"

OK = "ok"
FAIL = "fail"
UNKNOWN = "unknown"
SKIP = "skip"


@dataclass(frozen=True)
class OracleOutcome:
    """The result of one oracle on one case."""

    oracle: str
    status: str
    detail: str = ""

    @property
    def failed(self) -> bool:
        """Whether this outcome is a genuine disagreement."""
        return self.status == FAIL


@dataclass
class RouteResult:
    """One frontend's answer: a verdict plus optional probe memberships."""

    name: str
    verdict: Verdict
    membership: tuple[bool, ...] | None = field(default=None)


class CaseContext:
    """Everything built once per case: databases, query AST, budgets.

    Engines are constructed per use (each holding a private cache) so
    the cache-consistency oracle can compare genuinely cold and warm
    evaluations.
    """

    def __init__(self, case: Case, *,
                 budget_steps: int = DEFAULT_CASE_STEPS):
        self.case = case
        self.budget_steps = budget_steps
        self.query = case.parse_query()
        if case.fcf is not None:
            self.fcf_db = case.fcf.build()
            self.hsdb = self.fcf_db.to_hsdb()
        else:
            self.fcf_db = None
            self.hsdb = builtin_hsdb(case.db)
        self.variables = tuple(fo.Var(n) for n in case.variables)
        self._plans: dict | None = None
        self._routes: dict[str, RouteResult] | None = None

    # -- engines -------------------------------------------------------------

    def budget(self) -> Budget:
        """A fresh step budget for one evaluation."""
        return Budget(max_steps=self.budget_steps)

    def hs_engine(self) -> Engine:
        """A fresh engine (private cache) over the hs view."""
        return Engine(self.hsdb, budget=self.budget())

    def fcf_engine(self) -> Engine:
        """A fresh engine (private cache) over the fcf view."""
        if self.fcf_db is None:
            raise ValueError("case has no fcf view")
        return Engine(self.fcf_db, budget=self.budget())

    # -- value helpers -------------------------------------------------------

    def membership(self, value, probes=None) -> tuple[bool, ...]:
        """Pointwise membership of the probe tuples in a value."""
        probes = self.case.probes if probes is None else probes
        if isinstance(value, FcfValue):
            return tuple(value.contains(u) for u in probes)
        return tuple(
            len(u) == value.rank
            and any(self.hsdb.equivalent(u, p) for p in value.paths)
            for u in probes)

    def _route_from_value(self, name: str, value,
                          with_membership: bool) -> RouteResult:
        verdict = Verdict.of(truth(value), value=value)
        membership = (self.membership(value)
                      if with_membership and self.case.probes else None)
        return RouteResult(name, verdict, membership)

    def _route_unknown(self, name: str, exc: OutOfFuel) -> RouteResult:
        return RouteResult(name, Verdict.unknown(exc.reason,
                                                 steps=exc.steps))

    # -- the frontend routes -------------------------------------------------

    def plans(self) -> dict:
        """The case's engine plans, route name → plan (memoized):
        :func:`~repro.engine.frontends.lower_all` over every applicable
        frontend."""
        if self._plans is None:
            if self.case.query_kind == "formula":
                self._plans = lower_all(self.query, self.hsdb.signature,
                                        variables=self.variables,
                                        include_gmhs=self.case.gmhs)
            else:
                self._plans = lower_all(
                    self.query, self.hsdb.signature,
                    include_qlf=self.fcf_db is not None)
        return self._plans

    def routes(self) -> dict[str, RouteResult]:
        """Every applicable frontend's answer to this case (memoized)."""
        if self._routes is None:
            self._routes = self._compute_routes()
        return self._routes

    def _compute_routes(self) -> dict[str, RouteResult]:
        case = self.case
        want_members = bool(case.probes) and case.rank > 0
        out: dict[str, RouteResult] = {}

        if case.query_kind == "formula":
            out["direct-fo"] = self._direct_fo(want_members)
        else:
            out["qlf-direct"] = self._direct_qlf(want_members)
            out["qlhs-direct"] = self._direct_qlhs(want_members)

        plans = self.plans()
        hs_engine = self.hs_engine()
        fcf_engine = (self.fcf_engine()
                      if any(r in plans for r in FCF_ROUTES) else None)
        for name, plan in plans.items():
            engine = fcf_engine if name in FCF_ROUTES else hs_engine
            verdict = _engine_eval(engine, plan)
            membership = None
            if want_members and verdict.known:
                membership = self.membership(verdict.value)
            out[f"engine-{name}"] = RouteResult(f"engine-{name}",
                                                verdict, membership)

        if case.query_kind == "formula":
            out["qlhs-direct"] = self._direct_qlhs(want_members)
        return out

    def _direct_fo(self, want_members: bool) -> RouteResult:
        """The Theorem 6.3 evaluator, bypassing the engine entirely."""
        if not self.variables:
            return RouteResult("direct-fo", Verdict.of(
                fo_evaluate(self.hsdb, self.query)))
        membership = None
        if want_members:
            from ..logic.evaluator import relation_from_formula
            paths = relation_from_formula(self.hsdb, self.query,
                                          list(self.variables))
            value_like = _PathSet(len(self.variables), paths)
            membership = tuple(
                len(u) == value_like.rank
                and any(self.hsdb.equivalent(u, p)
                        for p in value_like.paths)
                for u in self.case.probes)
            verdict = Verdict.of(bool(paths))
        else:
            verdict = Verdict.of(False)
        return RouteResult("direct-fo", verdict, membership)

    def _as_program(self) -> q.Program:
        if isinstance(self.query, q.Term):
            return q.Assign("Y1", self.query)
        if isinstance(self.query, q.Program):
            return self.query
        from ..qlhs.from_logic import compile_formula
        term = compile_formula(self.query, list(self.variables),
                               self.hsdb.signature)
        return q.Assign("Y1", term)

    def _direct_qlhs(self, want_members: bool) -> RouteResult:
        """The §3.3 interpreter over the hs view, bypassing the engine."""
        try:
            value = QLhsInterpreter(self.hsdb, budget=self.budget()).run(
                self._as_program())
        except OutOfFuel as exc:
            return self._route_unknown("qlhs-direct", exc)
        return self._route_from_value("qlhs-direct", value, want_members)

    def _direct_qlf(self, want_members: bool) -> RouteResult:
        """The Section 4 interpreter over the fcf view.

        Abstains (``UNKNOWN``/:data:`UNREPRESENTABLE`) when the query
        leaves the finite/co-finite class — QLf+'s ``↑`` is partial.
        """
        try:
            value = QLfInterpreter(self.fcf_db, budget=self.budget()).result(
                self._as_program())
        except OutOfFuel as exc:
            return self._route_unknown("qlf-direct", exc)
        except RepresentationError:
            return RouteResult("qlf-direct",
                               Verdict.unknown(UNREPRESENTABLE))
        return self._route_from_value("qlf-direct", value, want_members)


def _engine_eval(engine: Engine, plan) -> Verdict:
    """``engine.eval`` with QLf+ representability partiality mapped to
    an abstaining verdict (the same discipline as a tripped budget)."""
    try:
        return engine.eval(plan)
    except RepresentationError:
        return Verdict.unknown(UNREPRESENTABLE)


@dataclass(frozen=True)
class _PathSet:
    """A minimal Value-shaped pair (rank, paths) for direct FO answers."""

    rank: int
    paths: frozenset


# ---------------------------------------------------------------------------
# The differential oracle.
# ---------------------------------------------------------------------------

def differential(ctx: CaseContext) -> OracleOutcome:
    """All frontends must agree modulo UNKNOWN (verdicts and probes)."""
    routes = ctx.routes()
    results = list(routes.values())
    for i, a in enumerate(results):
        for b in results[i + 1:]:
            if a.verdict.conflicts(b.verdict):
                return OracleOutcome(
                    "differential", FAIL,
                    f"{a.name}={a.verdict.status.upper()} vs "
                    f"{b.name}={b.verdict.status.upper()} on "
                    f"{ctx.case.describe()}")
            if a.membership is not None and b.membership is not None:
                for probe, x, y in zip(ctx.case.probes, a.membership,
                                       b.membership):
                    if x != y:
                        return OracleOutcome(
                            "differential", FAIL,
                            f"{a.name} says {probe!r}∈Q is {x}, "
                            f"{b.name} says {y} on {ctx.case.describe()}")
    if all(r.verdict.is_unknown for r in results):
        return OracleOutcome("differential", UNKNOWN,
                             "every route abstained")
    return OracleOutcome("differential", OK)


# ---------------------------------------------------------------------------
# Metamorphic oracles.
# ---------------------------------------------------------------------------

def permutation(ctx: CaseContext) -> OracleOutcome:
    """Genericity under a random domain permutation (fcf cases only)."""
    case = ctx.case
    if case.fcf is None:
        return OracleOutcome("permutation", SKIP, "builtin database")
    rng = random.Random(case.salt)
    perm = gen_permutation(rng)
    permuted = Case(case.index, case.kind, case.db, case.query,
                    case.query_kind, fcf=permute_fcf_spec(case.fcf, perm),
                    variables=case.variables, rank=case.rank,
                    probes=tuple(permute_tuple(u, perm)
                                 for u in case.probes),
                    salt=case.salt)
    base = _reference_route(ctx)
    other = _reference_route(CaseContext(permuted,
                                         budget_steps=ctx.budget_steps))
    if base.verdict.conflicts(other.verdict):
        return OracleOutcome(
            "permutation", FAIL,
            f"σ flips {base.verdict.status.upper()} to "
            f"{other.verdict.status.upper()} on {case.describe()} "
            f"(perm={perm})")
    if base.membership is not None and other.membership is not None:
        for u, x, y in zip(case.probes, base.membership,
                           other.membership):
            if x != y:
                return OracleOutcome(
                    "permutation", FAIL,
                    f"u={u!r}: u∈Q(B) is {x} but σ(u)∈Q(σB) is {y} on "
                    f"{case.describe()} (perm={perm})")
    if base.verdict.is_unknown and other.verdict.is_unknown:
        return OracleOutcome("permutation", UNKNOWN,
                             "both sides abstained")
    return OracleOutcome("permutation", OK)


def _reference_route(ctx: CaseContext) -> RouteResult:
    """One representative frontend answer for metamorphic comparisons.

    QLf+ is preferred for term/program cases (exact fcf membership);
    when it abstains for representability, the QLhs interpreter over
    the Proposition 4.1 hs view answers instead.
    """
    case = ctx.case
    want_members = bool(case.probes) and case.rank > 0
    if case.query_kind == "formula":
        return ctx._direct_fo(want_members)
    result = ctx._direct_qlf(want_members)
    if result.verdict.is_unknown and result.verdict.reason == UNREPRESENTABLE:
        return ctx._direct_qlhs(want_members)
    return result


def cache(ctx: CaseContext) -> OracleOutcome:
    """Cold run == warm run == fresh-cache run (the E15 invariant)."""
    plan = _primary_plan(ctx)
    if plan is None:
        return OracleOutcome("cache", SKIP, "no engine plan")
    engine, fresh = _engine_for_plan(ctx), _engine_for_plan(ctx)
    cold = _engine_eval(engine, plan)
    warm = _engine_eval(engine, plan)
    independent = _engine_eval(fresh, plan)
    for name, v in (("warm", warm), ("fresh", independent)):
        if v.status != cold.status:
            return OracleOutcome(
                "cache", FAIL,
                f"cold={cold.status.upper()} but {name}="
                f"{v.status.upper()} on {ctx.case.describe()}")
    if cold.is_unknown:
        return OracleOutcome("cache", UNKNOWN, "all runs abstained")
    return OracleOutcome("cache", OK)


def budget(ctx: CaseContext) -> OracleOutcome:
    """Budget monotonicity: more fuel never flips TRUE↔FALSE."""
    plan = _primary_plan(ctx)
    if plan is None:
        return OracleOutcome("budget", SKIP, "no engine plan")
    engine = _engine_for_plan(ctx)
    ladder = (200, 5_000, ctx.budget_steps)
    try:
        verdicts = [engine.eval(plan, budget=Budget(max_steps=steps))
                    for steps in ladder]
    except RepresentationError:
        return OracleOutcome("budget", UNKNOWN, UNREPRESENTABLE)
    known: Verdict | None = None
    for steps, v in zip(ladder, verdicts):
        if known is not None and v.is_unknown:
            return OracleOutcome(
                "budget", FAIL,
                f"known at a smaller budget but UNKNOWN at {steps} "
                f"steps on {ctx.case.describe()}")
        if known is not None and v.conflicts(known):
            return OracleOutcome(
                "budget", FAIL,
                f"more fuel flipped {known.status.upper()} to "
                f"{v.status.upper()} at {steps} steps on "
                f"{ctx.case.describe()}")
        if v.known and known is None:
            known = v
    if known is None:
        return OracleOutcome("budget", UNKNOWN,
                             "unknown at every budget")
    return OracleOutcome("budget", OK)


def rewrites(ctx: CaseContext) -> OracleOutcome:
    """Semantics-preserving rewrites must preserve verdicts."""
    case = ctx.case
    engine = ctx.hs_engine()
    if case.query_kind == "formula":
        f = ctx.query
        variants = {
            "double-negation": fo.Not(fo.Not(f)),
            "no-implications": eliminate_implications(f),
            "nnf-de-morgan": nnf(f),
        }
        def lower(g):
            from ..engine import plan_from_formula
            return plan_from_formula(g, list(ctx.variables),
                                     ctx.hsdb.signature)
    elif case.query_kind == "term":
        variants = {"double-complement": q.Comp(q.Comp(ctx.query))}
        def lower(g):
            return plan_from_term(g, ctx.hsdb.signature)
    else:
        return OracleOutcome("rewrites", SKIP, "programs not rewritten")

    base = _engine_eval(engine, lower(ctx.query))
    for name, variant in variants.items():
        v = _engine_eval(engine, lower(variant))
        if v.conflicts(base):
            return OracleOutcome(
                "rewrites", FAIL,
                f"{name} flips {base.status.upper()} to "
                f"{v.status.upper()} on {case.describe()}")
    if base.is_unknown:
        return OracleOutcome("rewrites", UNKNOWN, "base abstained")
    return OracleOutcome("rewrites", OK)


def optimizer(ctx: CaseContext) -> OracleOutcome:
    """Interpreted == optimized == optimized+compiled on the hs view.

    The strongest equality the engine offers: not just verdict
    agreement but canonical-*value* equality (the optimizer and the
    compiled backend both promise bit-for-bit representative sets,
    ``docs/optimizer.md``), plus pointwise probe membership for open
    queries.
    """
    plan = _hs_plan(ctx)
    if plan is None:
        return OracleOutcome("optimizer", SKIP, "no hs plan")
    case = ctx.case
    want_members = bool(case.probes) and case.rank > 0
    configs = (("interpreted", False, False),
               ("optimized", True, False),
               ("compiled", True, True))
    results: list[tuple[str, Verdict, tuple[bool, ...] | None]] = []
    for name, opt, comp in configs:
        engine = Engine(ctx.hsdb, budget=ctx.budget(),
                        optimize=opt, compiled=comp)
        verdict = _engine_eval(engine, plan)
        membership = (ctx.membership(verdict.value)
                      if want_members and verdict.known else None)
        results.append((name, verdict, membership))
    base_name, base, base_members = results[0]
    for name, v, members in results[1:]:
        if v.conflicts(base):
            return OracleOutcome(
                "optimizer", FAIL,
                f"{name}={v.status.upper()} vs {base_name}="
                f"{base.status.upper()} on {case.describe()}")
        if (v.known and base.known
                and v.value is not None and base.value is not None
                and v.value != base.value):
            return OracleOutcome(
                "optimizer", FAIL,
                f"{name} computes a different canonical value than "
                f"{base_name} on {case.describe()}")
        if members is not None and base_members is not None:
            for probe, x, y in zip(case.probes, members, base_members):
                if x != y:
                    return OracleOutcome(
                        "optimizer", FAIL,
                        f"{name} says {probe!r}∈Q is {x}, {base_name} "
                        f"says {y} on {case.describe()}")
    if all(v.is_unknown for __, v, __ in results):
        return OracleOutcome("optimizer", UNKNOWN,
                             "every configuration abstained")
    return OracleOutcome("optimizer", OK)


#: The campaign-wide process pool behind the ``shard`` oracle, started
#: lazily on the first shardable case and reused for every later one
#: (pool spin-up costs ~100ms; per-case pools would dominate a
#: campaign).  Guarded by a lock: sharded campaigns run oracles from
#: worker processes, each with its own pool.
_SHARD_POOL = None
_SHARD_POOL_LOCK = threading.Lock()


def _shard_executor():
    """The shared :class:`~repro.engine.shard.ShardExecutor`.

    Two real worker processes in a top-level campaign; **inline**
    (``workers=1``) when this process is itself a pool worker — a
    ``--workers=N`` campaign fans cases across processes, and pools
    must not nest inside pools (the worker trees wedge each other at
    exit on small machines, and the parent campaign already exercises
    the real pool).  The verdict comparison is identical either way,
    which keeps sharded campaign reports equal to sequential ones.
    """
    global _SHARD_POOL
    import multiprocessing

    from ..engine.shard import ShardExecutor
    with _SHARD_POOL_LOCK:
        if _SHARD_POOL is None:
            workers = (1 if multiprocessing.parent_process() is not None
                       else 2)
            _SHARD_POOL = ShardExecutor(workers)
        return _SHARD_POOL


def shard(ctx: CaseContext) -> OracleOutcome:
    """Plans shipped to worker processes must agree with in-process.

    The serializable engine routes on the primary plan's database view
    (the :meth:`~CaseContext.plans` entries that run on it, but GMhs's
    :class:`~repro.engine.plan.MachineFixpoint`) go through
    :meth:`ShardExecutor.eval_batch
    <repro.engine.shard.ShardExecutor.eval_batch>` on a fresh engine,
    and each shipped verdict must agree modulo ``UNKNOWN`` with the
    same route's in-process verdict (:meth:`CaseContext.routes`).
    ``eval_batch`` keeps a batch of one in-process, so a lone route
    ships twice.  Skips when no shippable spec exists.
    """
    from ..engine.plan import MachineFixpoint
    from ..engine.shard import UnshardableDatabaseError, derive_spec

    case = ctx.case
    try:
        spec = derive_spec(ctx.fcf_db if ctx.fcf_db is not None
                           else ctx.hsdb)
    except UnshardableDatabaseError as exc:
        return OracleOutcome("shard", SKIP, str(exc))
    plans = ctx.plans()
    fcf_view = _fcf_primary(ctx)
    names = [name for name, plan in plans.items()
             if (name in FCF_ROUTES) == fcf_view
             and not isinstance(plan, MachineFixpoint)]
    if len(names) == 1:
        names *= 2
    engine = ctx.fcf_engine() if fcf_view else ctx.hs_engine()
    try:
        shipped = _shard_executor().eval_batch(
            engine, [plans[name] for name in names], spec=spec)
    except RepresentationError:
        return OracleOutcome("shard", UNKNOWN, UNREPRESENTABLE)
    routes = ctx.routes()
    decisive = False
    for name, verdict in zip(names, shipped):
        local = routes[f"engine-{name}"].verdict
        if verdict.conflicts(local):
            return OracleOutcome(
                "shard", FAIL,
                f"process pool says {verdict.status.upper()}, in-process "
                f"says {local.status.upper()} on route {name} of "
                f"{case.describe()}")
        decisive = decisive or not (verdict.is_unknown
                                    and local.is_unknown)
    if not decisive:
        return OracleOutcome("shard", UNKNOWN, "both sides abstained")
    return OracleOutcome("shard", OK)


# ---------------------------------------------------------------------------
# Plumbing shared by the metamorphic oracles.
# ---------------------------------------------------------------------------

def _hs_plan(ctx: CaseContext):
    """The case's plan over the hs view, where the optimizer acts."""
    plans = ctx.plans()
    return plans["fo"] if ctx.case.query_kind == "formula" else plans["qlhs"]


def _fcf_primary(ctx: CaseContext) -> bool:
    """Whether the primary plan runs on the fcf view (a QLf+ route)."""
    return any(name in ctx.plans() for name in FCF_ROUTES)


def _primary_plan(ctx: CaseContext):
    """The one engine plan metamorphic oracles re-evaluate."""
    plans = ctx.plans()
    return next(plans[name] for name in (*FCF_ROUTES, "fo", "qlhs")
                if name in plans)


def _engine_for_plan(ctx: CaseContext) -> Engine:
    """An engine over the database the primary plan executes on."""
    return ctx.fcf_engine() if _fcf_primary(ctx) else ctx.hs_engine()


#: The oracle battery, in run order, with the case kinds they apply to.
ORACLES = {
    "differential": differential,
    "permutation": permutation,
    "cache": cache,
    "budget": budget,
    "rewrites": rewrites,
    "optimizer": optimizer,
    "shard": shard,
}

#: Which oracles run for which case kind.
ORACLES_BY_KIND = {
    "fo-hs": ("differential", "cache", "budget", "rewrites", "optimizer",
              "shard"),
    "fo-open-hs": ("differential", "cache", "rewrites", "optimizer",
                   "shard"),
    "fo-fcf": ("differential", "permutation", "cache", "rewrites",
               "optimizer", "shard"),
    "term-fcf": ("differential", "permutation", "budget", "rewrites",
                 "optimizer", "shard"),
    "program-fcf": ("differential", "permutation", "budget", "optimizer",
                    "shard"),
}


def run_oracles(ctx: CaseContext,
                names: tuple[str, ...] | None = None
                ) -> list[OracleOutcome]:
    """Run the applicable oracle battery over one built case."""
    from ..trace import span
    if names is None:
        names = ORACLES_BY_KIND[ctx.case.kind]
    outcomes = []
    for name in names:
        with span(f"check.oracle.{name}") as sp:
            outcome = ORACLES[name](ctx)
            sp.set(status=outcome.status)
        outcomes.append(outcome)
    return outcomes
