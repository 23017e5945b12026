"""``repro.engine`` — the unified query-evaluation engine.

One evaluation surface for all four query frontends (L⁻/FO, QLhs, QLf+,
GMhs), built from:

* :mod:`repro.engine.plan` — the plan IR
  (scan/filter/project/quantify/join/fixpoint + boolean combinators)
  and its normalizer;
* :mod:`repro.engine.frontends` — thin adapters lowering each source
  language into the IR (FO directly, the others by reusing their
  existing compilers);
* :mod:`repro.engine.fingerprint` — structural database fingerprints,
  the key that makes cached results safely reusable across database
  copies (genericity, Definition 2.4, is the soundness argument);
* :mod:`repro.engine.cache` — the two-level (plan, result) cache;
* :mod:`repro.engine.optimize` — the rule-based plan optimizer
  (complement pushdown, projection fusion, constant folding via
  genericity; ``docs/optimizer.md``), on by default in
  :meth:`Engine.prepare`;
* :mod:`repro.engine.compile` — the compiled-closure execution
  backend, on by default for cold evaluations;
* :mod:`repro.engine.executor` — :class:`Engine`: cached, sequential,
  thread-safe evaluation and batched membership, metered end to end
  and governed by a :class:`~repro.trace.Budget`;
* :mod:`repro.engine.verdict` — :class:`Verdict`, the three-valued
  answer type of :meth:`Engine.eval`: divergence (a tripped budget)
  becomes ``UNKNOWN`` with a machine-readable reason instead of a
  leaked :class:`~repro.errors.OutOfFuel`;
* :mod:`repro.engine.stats` — :class:`EngineStats` snapshots
  (oracle questions, cache traffic, per-node timings, wall time,
  verdict counts);
* :mod:`repro.engine.shard` — multi-process execution: the shared
  :class:`WorkerPool` fans coarse work (check campaigns, ingest)
  across processes, and ``ShardExecutor(N).eval_batch(engine,
  plans)`` ships plans by fingerprint shard, with ordered merge and
  exact budget/stats/span re-aggregation at the join.  Serving and
  membership batches stay in-process, where they measured faster
  (``docs/sharding.md``).

Quick use::

    from repro.engine import Engine, plan_from_sentence
    from repro.logic import parse
    from repro.symmetric import rado_hsdb

    db = rado_hsdb()
    engine = Engine(db)
    plan = plan_from_sentence(parse("forall x. exists y. R1(x, y)"),
                              db.signature)
    engine.holds(plan)        # cold: evaluates; warm: a cache probe
    print(engine.stats().format())
"""

from .cache import EngineCache, PlanCache, ResultCache
from .compile import CompiledPlan, compile_plan
from .executor import Engine
from .fingerprint import (
    fingerprint,
    fingerprint_fcf,
    fingerprint_hsdb,
    fingerprint_rdb,
)
from .frontends import (
    FCF_ROUTES,
    HS_ROUTES,
    lower_all,
    plan_from_formula,
    plan_from_formula_macro,
    plan_from_gmhs,
    plan_from_qlf,
    plan_from_qlhs,
    plan_from_sentence,
    plan_from_term,
    procedure_from_formula,
    term_rank,
)
from .optimize import (
    RULE_NAMES,
    RULES,
    OptimizeResult,
    common_subplans,
    optimize,
    optimize_result,
)
from .plan import (
    EXISTS,
    FORALL,
    Complement,
    Empty,
    Extend,
    FcfFixpoint,
    FilterAtom,
    FilterEq,
    Fixpoint,
    FullScan,
    Intersect,
    Join,
    MachineFixpoint,
    Plan,
    Project,
    Quantify,
    Scan,
    Union,
    normalize,
    plan_rank,
    plan_size,
)
from .shard import (
    ShardExecutor,
    ShardTaskError,
    UnshardableDatabaseError,
    WorkerPool,
    derive_spec,
    shard_index,
)
from .stats import CacheStats, EngineStats, MutableEngineStats, OptimizerStats
from .verdict import FALSE, TRUE, UNKNOWN, Verdict, merge_verdicts

__all__ = [
    "EXISTS",
    "FALSE",
    "FCF_ROUTES",
    "FORALL",
    "HS_ROUTES",
    "RULES",
    "RULE_NAMES",
    "TRUE",
    "UNKNOWN",
    "CacheStats",
    "Complement",
    "CompiledPlan",
    "Empty",
    "Engine",
    "EngineCache",
    "EngineStats",
    "Extend",
    "FcfFixpoint",
    "FilterAtom",
    "FilterEq",
    "Fixpoint",
    "FullScan",
    "Intersect",
    "Join",
    "MachineFixpoint",
    "MutableEngineStats",
    "OptimizeResult",
    "OptimizerStats",
    "Plan",
    "PlanCache",
    "Project",
    "Quantify",
    "ResultCache",
    "Scan",
    "ShardExecutor",
    "ShardTaskError",
    "Union",
    "UnshardableDatabaseError",
    "Verdict",
    "WorkerPool",
    "common_subplans",
    "compile_plan",
    "derive_spec",
    "fingerprint",
    "fingerprint_fcf",
    "fingerprint_hsdb",
    "fingerprint_rdb",
    "lower_all",
    "merge_verdicts",
    "normalize",
    "optimize",
    "optimize_result",
    "plan_from_formula",
    "plan_from_formula_macro",
    "plan_from_gmhs",
    "plan_from_qlf",
    "plan_from_qlhs",
    "plan_from_sentence",
    "plan_from_term",
    "plan_rank",
    "plan_size",
    "procedure_from_formula",
    "shard_index",
    "term_rank",
]
