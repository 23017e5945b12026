"""The Theorem 5.1 pipeline: computing hs-r-queries with a GMhs.

The proof's program ``P_Q`` stages:

1. **load** — bring the ``Cᵢ`` and enough of the tree onto the tape via
   repeated ``load`` operations, discarding duplicate-drawing units and
   letting collapse merge the survivors (the Section 5 protocol;
   implemented with real spawn/collapse mechanics);
2. **encode** — "each unit-GMhs encodes C₁,…,C_k and Tⁿ by tuples of
   integers": assign indices to the distinct elements drawn, producing
   an ℕ-model;
3. **run M** — the Turing-machine stage on the integer model, with
   ``≅_B`` questions (transition type 4) answered through the oracle and
   tree questions by loading more levels (action (v));
4. **store & collapse** — decode the output into representatives, store
   them (action (vi)), erase tapes, and halt: "all the unit-GMhs's
   collapse into a single unit-GMhs whose relational store is the union
   of their stores.  Since M is generic, the relational stores of all
   the unit-GMhs are the same".

The machine ``M`` uses the same :class:`~repro.qlhs.completeness.ModelOracle`
interface as the QLhs pipeline, so one query procedure runs under both
engines — the integration tests' "all routes agree" checks rest on that.
"""

from __future__ import annotations

from ..errors import MachineError
from ..qlhs.completeness import ModelOracle, QueryProcedure
from ..qlhs.interpreter import Value
from ..symmetric.hsdb import HSDatabase
from ..trace import Budget, limits, span
from ..trace.budget import as_budget
from .generic import RunMetrics
from .gmhs import GMhsMachine, Halt, Load, StoreCanonical


def _loader_machine(hsdb: HSDatabase, depth: int) -> GMhsMachine:
    """Stage 1 as a GMhs: load every Cᵢ tuple and every path of
    ``T^depth`` onto the tape (one segment each), using the discard-
    duplicates-and-collapse discipline; survivors store their draws
    into scratch relations and halt with empty tapes."""
    sizes = [len(reps) for reps in hsdb.representatives]
    # Tuples expected on tape once relations 0..i are fully drawn.
    cumulative = [sum(sizes[: i + 1]) for i in range(len(sizes))]

    def next_nonempty(i: int) -> int | None:
        for j in range(i, len(sizes)):
            if sizes[j] > 0:
                return j
        return None

    def emit(tape):
        if not tape:
            return Halt(())
        return StoreCanonical("DRAWN", tape[-1], "emit", tape[:-1])

    def transition(state, tape, flags, equiv):
        if state == "start":
            first = next_nonempty(0)
            if first is None:
                return Halt(())
            return Load(f"C{first + 1}", f"check-{first}")
        if state.startswith("check-"):
            i = int(state.split("-", 1)[1])
            # Duplicates are judged within the current relation's draws
            # (the protocol loads each Cᵢ separately; two relations may
            # legitimately share a representative).
            start_of_current = cumulative[i] - sizes[i]
            if tape[-1] in tape[start_of_current:-1]:
                return Halt(())  # duplicate draw: die into the pool
            if len(tape) < cumulative[i]:
                return Load(f"C{i + 1}", f"check-{i}")
            following = next_nonempty(i + 1)
            if following is not None:
                return Load(f"C{following + 1}", f"check-{following}")
            return emit(tape)
        if state == "emit":
            return emit(tape)
        raise MachineError(f"unknown state {state!r}")

    return GMhsMachine(hsdb, transition, name="load-stage")


def run_query_gmhs(hsdb: HSDatabase, machine: QueryProcedure,
                   search_window: int = 512, *,
                   budget: Budget | int | None = None
                   ) -> tuple[Value, RunMetrics]:
    """Run a recursive generic query end to end, GMhs-style.

    Returns the answer (as class representatives) and the metrics of the
    GMhs loading stage — the spawn/collapse accounting the Theorem 5.1
    narrative is about.

    The whole pipeline runs under one :class:`~repro.trace.Budget`
    (default :data:`repro.trace.limits.GMHS_PIPELINE`): the loading stage
    charges per synchronous GMhs step, and the budget's deadline /
    cancellation flag are re-checked between stages so a cancelled run
    stops at the next stage boundary.
    """
    budget = as_budget(budget, default_steps=limits.GMHS_PIPELINE)
    with span("gmhs.pipeline", database=getattr(hsdb, "name", "?")):
        # Stage 1: load the C's with genuine spawn/collapse mechanics.
        with span("gmhs.load"):
            loader = _loader_machine(hsdb, depth=0)
            store, metrics = loader.run_on_cb(budget=budget)
        drawn = store.get("DRAWN", frozenset())
        expected = set().union(*hsdb.representatives) if any(
            hsdb.representatives) else set()
        if drawn != frozenset(expected):
            raise MachineError(
                "the loading stage did not reproduce the representative "
                "sets")

        # Stage 2: encode by integers — the ModelOracle's positions,
        # seeded from the drawn elements in deterministic order.
        budget.check()
        with span("gmhs.encode"):
            elements: list = []
            for t in sorted(drawn, key=repr):
                for x in t:
                    if x not in elements:
                        elements.append(x)
            if not elements:
                elements = [hsdb.domain.first(1)[0]]
            oracle = ModelOracle(hsdb, tuple(elements),
                                 search_window=search_window)

        # Stage 3: the Turing-machine stage (tree/≅ questions through
        # the oracle, growing the model as the proof's "load more
        # levels" step).
        budget.check()
        with span("gmhs.machine") as sp:
            before = hsdb.equiv.calls
            output = machine(oracle)
            sp.count("oracle_questions", hsdb.equiv.calls - before)

        # Stage 4: decode and store canonically (the final collapse).
        budget.check()
        with span("gmhs.store"):
            if not output:
                return Value(0, frozenset()), metrics
            ranks = {len(pos) for pos in output}
            if len(ranks) != 1:
                raise MachineError("a generic query yields one output rank")
            reps = {
                hsdb.canonical_representative(
                    tuple(oracle.elements[p] for p in pos))
                for pos in output
            }
            return Value(ranks.pop(), frozenset(reps)), metrics
