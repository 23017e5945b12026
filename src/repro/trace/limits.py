"""The single registry of every resource-limit default in the library.

Queries over recursive databases are inherently partial (Section 4 of
the paper forces step bounds everywhere), so every interpreter takes a
:class:`~repro.trace.budget.Budget`.  The *defaults* those budgets fall
back to used to be six uncoordinated integers scattered across the
code; this module is now the one place they live, and
``docs/limits.md`` renders the same registry as prose.  A unit test
(``tests/test_docs/test_limits_doc.py``) cross-checks all three views:
the constants here, the live behaviour of each entry point, and the
markdown table.

Doctest::

    >>> from repro.trace import limits
    >>> limits.COUNTER_RUN
    100000
    >>> limits.ENGINE >= limits.QLHS_INTERPRETER
    True
"""

from __future__ import annotations

from dataclasses import dataclass

# -- the default step budgets, one constant per governed entry point --------

COUNTER_RUN = 100_000
ORACLE_RUN = 100_000
GM_RUN = 100_000
GMHS_RUN_ON_CB = 200_000
GMHS_PIPELINE = 500_000
MACHINE_FIXPOINT = 500_000
QLHS_INTERPRETER = 1_000_000
QL_INTERPRETER = 1_000_000
QLF_INTERPRETER = 1_000_000
PQ_PIPELINE = 10_000_000
ENGINE = 10_000_000
OPTIMIZER_PASSES = 12
CHECK_CASE = 200_000
SERVE_REQUEST = 2_000_000
INGEST_DB = 5_000_000


@dataclass(frozen=True)
class LimitSpec:
    """One row of the authoritative limits table.

    ``location`` is the dotted path of the governed entry point,
    ``parameter`` the budget-accepting parameter, ``default`` the step
    budget used when the caller passes nothing, ``step_meaning`` what
    one unit of the budget counts there, and ``failure`` how exhaustion
    surfaces to the caller.
    """

    location: str
    parameter: str
    default: int
    step_meaning: str
    failure: str


#: Every budget knob in ``src/repro/``, in docs/limits.md order.
REGISTRY: tuple[LimitSpec, ...] = (
    LimitSpec(
        "repro.machines.counter.CounterMachine.run",
        "budget", COUNTER_RUN,
        "one executed counter instruction",
        "raises OutOfFuel(reason)"),
    LimitSpec(
        "repro.machines.oracle.OracleProgram.run",
        "budget", ORACLE_RUN,
        "one executed register instruction (ASK included)",
        "raises OutOfFuel(reason)"),
    LimitSpec(
        "repro.machines.generic.GenericMachine.run",
        "budget", GM_RUN,
        "one synchronous step of all live units",
        "raises OutOfFuel(reason)"),
    LimitSpec(
        "repro.machines.gmhs.GMhsMachine.run_on_cb",
        "budget", GMHS_RUN_ON_CB,
        "one synchronous step of all live units",
        "raises OutOfFuel(reason)"),
    LimitSpec(
        "repro.machines.gmhs_pipeline.run_query_gmhs",
        "budget", GMHS_PIPELINE,
        "one synchronous GMhs step of the loading stage",
        "raises OutOfFuel(reason)"),
    LimitSpec(
        "repro.engine.plan.MachineFixpoint",
        "max_steps", MACHINE_FIXPOINT,
        "one synchronous GMhs step of the loading stage",
        "Engine.eval returns Verdict.UNKNOWN"),
    LimitSpec(
        "repro.qlhs.interpreter.QLhsInterpreter",
        "budget", QLHS_INTERPRETER,
        "one statement or term operation (bulk ops cost their output size)",
        "raises OutOfFuel(reason)"),
    LimitSpec(
        "repro.finite.ql.QLInterpreter",
        "budget", QL_INTERPRETER,
        "one statement or term operation (`up` costs |value|*|domain|)",
        "raises OutOfFuel(reason)"),
    LimitSpec(
        "repro.fcf.qlf.QLfInterpreter",
        "budget", QLF_INTERPRETER,
        "one statement or term operation",
        "raises OutOfFuel(reason)"),
    LimitSpec(
        "repro.qlhs.completeness.PQPipeline",
        "budget", PQ_PIPELINE,
        "one QLhs operation of the find-d stage",
        "raises OutOfFuel(reason)"),
    LimitSpec(
        "repro.engine.executor.Engine",
        "budget", ENGINE,
        "one interpreter operation of any fixpoint node",
        "Engine.eval returns Verdict.UNKNOWN"),
    LimitSpec(
        "repro.engine.optimize.optimize",
        "max_passes", OPTIMIZER_PASSES,
        "one whole-tree rewrite pass of the plan optimizer",
        "the plan is used as rewritten so far (still semantics-preserving)"),
    LimitSpec(
        "repro.check.oracles.CaseContext",
        "budget_steps", CHECK_CASE,
        "one interpreter operation on any one frontend route of a fuzz case",
        "the route abstains (UNKNOWN); oracles compare modulo UNKNOWN"),
    LimitSpec(
        "repro.serve.tenants.Tenant",
        "max_steps", SERVE_REQUEST,
        "one interpreter operation of one HTTP request (per batch member)",
        "the response verdict is UNKNOWN; admission overruns get HTTP 429"),
    LimitSpec(
        "repro.store.ingest.ingest_manifest",
        "budget_steps", INGEST_DB,
        "one interpreter operation of one warm-up query of one database",
        "the query persists as UNKNOWN(out_of_fuel) in its budget class"),
)
