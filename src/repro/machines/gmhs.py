"""GMhs — generic machines over highly symmetric databases (Section 5).

The paper turns [AV]'s GMs into an hs-r-complete language: "the
relational store of the GMhs will contain C₁,…,C_k as finite relations,
and the GMhs will use the oracles for T_B and ≅_B in its calculations".
On top of the GM execution model (:mod:`repro.machines.generic`) a GMhs
adds the transition capabilities the paper enumerates:

* tests may consult equality of tape entries *and* the oracle question
  "is u ≅_B v?" (the transition function receives an ``equiv`` callable
  over tape-designated tuples — items 3 and 4 of the transition list);
* action (v): load the offspring of the current tuple from ``T_B`` onto
  the tape (one spawned copy per child — the tree oracle);
* action (vi): store a tuple from ``T_B`` equivalent to the current
  tuple in the relational store (canonicalization before storing).

Theorem 5.1's program starts by loading the ``Cᵢ`` and tree levels via
the Section 5 loading protocol (implemented for GM and reused here),
then proceeds Turing-style; :func:`relation_loader` and
:func:`children_explorer` are the reusable stages, and the tests verify
the spawn/collapse accounting the proof's narrative describes.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable, Mapping

from ..errors import MachineError
from ..symmetric.hsdb import HSDatabase
from ..trace import Budget, limits
from ..trace.budget import as_budget
from .generic import (
    Action,
    ClearRelation,
    Continue,
    GenericMachine,
    Halt,
    HALT_STATE,
    Load,
    RunMetrics,
    Store,
    StoreTuple,
    Tape,
    UnitGM,
)


@dataclass(frozen=True)
class LoadChildren:
    """Action (v): spawn one copy per tree child of the *current tuple*
    (the last tape entry), appending the extended tuple."""

    state: str


@dataclass(frozen=True)
class StoreCanonical:
    """Action (vi): store the representative equivalent to ``value``."""

    relation: str
    value: tuple
    state: str
    tape: Tape


GMhsAction = Action | LoadChildren | StoreCanonical

GMhsTransition = Callable[
    [str, Tape, Mapping[str, bool], Callable[[tuple, tuple], bool]],
    GMhsAction]
"""``transition(state, tape, store_empty_flags, equiv) -> action``."""


class GMhsMachine(GenericMachine):
    """A GMhs: GM semantics plus the T_B and ≅_B oracles."""

    def __init__(self, hsdb: HSDatabase, transition: GMhsTransition,
                 start_state: str = "start", name: str = "GMhs"):
        self.hsdb = hsdb
        self._gmhs_transition = transition
        super().__init__(self._adapt, start_state=start_state, name=name)

    def _adapt(self, state: str, tape: Tape,
               flags: Mapping[str, bool]) -> Action:
        # The GM loop expects an Action; GMhs-specific actions are
        # rewritten in _step below, so just thread the oracles through.
        return self._gmhs_transition(state, tape, flags,
                                     self.hsdb.equivalent)

    def _step(self, unit: UnitGM, metrics: RunMetrics) -> list[UnitGM]:
        flags = {k: not v for k, v in unit.store.items()}
        action = self._gmhs_transition(unit.state, unit.tape, flags,
                                       self.hsdb.equivalent)
        if isinstance(action, LoadChildren):
            if not unit.tape or not isinstance(unit.tape[-1], tuple):
                raise MachineError(
                    f"{self.name}: LoadChildren needs a tuple as the "
                    "current (last) tape entry")
            current = unit.tape[-1]
            rep = self.hsdb.canonical_representative(current)
            spawned = [
                UnitGM(action.state,
                       unit.tape[:-1] + (rep + (child,),),
                       dict(unit.store))
                for child in self.hsdb.tree.children(rep)
            ]
            metrics.spawns += max(0, len(spawned) - 1)
            return spawned
        if isinstance(action, StoreCanonical):
            rep = self.hsdb.canonical_representative(tuple(action.value))
            store = dict(unit.store)
            store[action.relation] = store.get(
                action.relation, frozenset()) | {rep}
            return [UnitGM(action.state, action.tape, store)]
        # Plain GM actions: delegate (re-dispatch on the computed action).
        return self._apply_plain(unit, action, metrics)

    def _apply_plain(self, unit: UnitGM, action: Action,
                     metrics: RunMetrics) -> list[UnitGM]:
        if isinstance(action, Halt):
            return [UnitGM(HALT_STATE, action.tape, unit.store)]
        if isinstance(action, Continue):
            return [UnitGM(action.state, action.tape, unit.store)]
        if isinstance(action, Load):
            tuples = unit.store.get(action.relation, frozenset())
            spawned = [
                UnitGM(action.state, unit.tape + (t,), dict(unit.store))
                for t in sorted(tuples, key=repr)
            ]
            metrics.spawns += max(0, len(spawned) - 1)
            return spawned
        if isinstance(action, StoreTuple):
            store = dict(unit.store)
            store[action.relation] = store.get(
                action.relation, frozenset()) | {tuple(action.value)}
            return [UnitGM(action.state, action.tape, store)]
        if isinstance(action, ClearRelation):
            store = dict(unit.store)
            store[action.relation] = frozenset()
            return [UnitGM(action.state, action.tape, store)]
        raise MachineError(f"unknown action {action!r}")

    def run_on_cb(self, *, budget: Budget | int | None = None
                  ) -> tuple[Store, RunMetrics]:
        """Run with the CB representative sets as the input store
        (relations named ``C1``, ``C2``, …).

        Budget default: :data:`repro.trace.limits.GMHS_RUN_ON_CB`.
        """
        budget = as_budget(budget, default_steps=limits.GMHS_RUN_ON_CB)
        store = {f"C{i + 1}": reps
                 for i, reps in enumerate(self.hsdb.representatives)}
        return self.run(store, budget=budget)


def children_explorer(hsdb: HSDatabase, depth: int,
                      output: str = "LEVEL") -> GMhsMachine:
    """A GMhs program materializing ``T^depth`` in the store.

    Demonstrates action (v): starting from the empty tuple, repeatedly
    load children; at the target depth, store the path canonically
    (action (vi)) and erase the tape — all units collapse into one whose
    ``output`` relation is exactly the level.
    """

    def transition(state, tape, flags, equiv):
        if state == "start":
            return Continue("explore", ((),))
        if state == "explore":
            current = tape[-1]
            if len(current) == depth:
                return StoreCanonical(output, current, "emit", ())
            return LoadChildren("explore")
        if state == "emit":
            return Halt(())
        raise MachineError(f"unknown state {state!r}")

    return GMhsMachine(hsdb, transition, name=f"explore({depth})")


def equivalence_filter(hsdb: HSDatabase, relation: str = "C1",
                       output: str = "OUT") -> GMhsMachine:
    """A GMhs program using the ≅_B test (transition item 4): keep the
    representatives of ``relation`` whose swap is equivalent to
    themselves (the symmetric classes)."""

    def transition(state, tape, flags, equiv):
        if state == "start":
            return Load(relation, "test")
        if state == "test":
            u = tape[-1]
            if len(u) >= 2:
                swapped = u[:-2] + (u[-1], u[-2])
                if equiv(u, swapped):
                    return StoreCanonical(output, u, "emit", ())
            return Halt(())
        if state == "emit":
            return Halt(())
        raise MachineError(f"unknown state {state!r}")

    return GMhsMachine(hsdb, transition, name="symmetric-filter")
