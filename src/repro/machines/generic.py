"""Generic machines (GM) of Abiteboul & Vianu, for finite databases.

Section 5 rephrases [AV]: "A GM consists of a TM interacting with a
relational store. … Loading a relation with n tuples to the tape has the
effect of spawning n copies of the machine, with one tuple appended to
the tape of each copy. … If several unit-GM's simultaneously reach the
same state and identical tape contents, they collapse automatically into
a single unit-GM, whose relational store is the union of their
relational stores."

This module implements that execution model:

* a :class:`UnitGM` is a ``(state, tape, store)`` triple;
* all units step *synchronously*; after every step, units agreeing on
  ``(state, tape)`` collapse, unioning their stores;
* the run ends when every unit is halted; a successful computation ends
  with a single halted unit with an empty tape (checked).

Simplifications, documented: the tape is a tuple of *entries* where a
loaded database tuple occupies one entry (rather than one cell per
symbol), and the per-unit finite control is a Python transition function
from ``(state, tape, store-emptiness flags)`` to an :class:`Action` —
the store-emptiness flags are exactly what the Theorem 5.1 loading
protocol's "if the appropriate store in the collapsed machine is empty"
step inspects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable, Mapping

from ..errors import MachineError
from ..trace import Budget, limits, span
from ..trace.budget import as_budget

Tape = tuple
Store = dict  # name -> frozenset of tuples

HALT_STATE = "HALT"


@dataclass(frozen=True)
class Continue:
    """Move to ``state`` with the rewritten ``tape``."""

    state: str
    tape: Tape


@dataclass(frozen=True)
class Load:
    """Spawn one copy per tuple of ``relation`` (from the unit's store),
    appending the tuple as a tape entry; each copy enters ``state``."""

    relation: str
    state: str


@dataclass(frozen=True)
class StoreTuple:
    """Add ``value`` to store ``relation``; continue at ``state``/``tape``."""

    relation: str
    value: tuple
    state: str
    tape: Tape


@dataclass(frozen=True)
class ClearRelation:
    """Empty store ``relation``; continue at ``state``/``tape``."""

    relation: str
    state: str
    tape: Tape


@dataclass(frozen=True)
class Halt:
    """Enter the halting state with the given tape."""

    tape: Tape = ()


Action = Continue | Load | StoreTuple | ClearRelation | Halt

TransitionFn = Callable[[str, Tape, Mapping[str, bool]], Action]
"""``transition(state, tape, store_empty_flags) -> Action``."""


@dataclass
class UnitGM:
    """One live unit of a generic machine (state, tape, store)."""

    state: str
    tape: Tape
    store: Store

    def key(self) -> tuple[str, Tape]:
        """The collapse key: units agreeing here are duplicates."""
        return (self.state, self.tape)

    @property
    def halted(self) -> bool:
        """Whether the unit has reached the halt state."""
        return self.state == HALT_STATE


@dataclass
class RunMetrics:
    """Operational counters of one GM run (steps/spawns/collapses)."""

    steps: int = 0
    spawns: int = 0
    collapses: int = 0
    peak_units: int = 1


class GenericMachine:
    """A GM: transition function + named input relations."""

    def __init__(self, transition: TransitionFn, start_state: str = "start",
                 name: str = "GM"):
        self.transition = transition
        self.start_state = start_state
        self.name = name

    def run(self, input_store: Mapping[str, frozenset], *,
            budget: Budget | int | None = None) -> tuple[Store, RunMetrics]:
        """Execute from a single unit with the input relations in store.

        Returns the final (single) unit's store and the run metrics.
        Raises :class:`MachineError` if the computation does not end
        with exactly one halted unit with an empty tape.

        One budget step is one *synchronous* step of all live units
        (default :data:`repro.trace.limits.GM_RUN`).
        """
        budget = as_budget(budget, default_steps=limits.GM_RUN)
        units = [UnitGM(self.start_state, (),
                        {k: frozenset(v) for k, v in input_store.items()})]
        metrics = RunMetrics()
        with span("gm.run", machine=self.name) as sp:
            while not all(u.halted for u in units):
                budget.charge()
                metrics.steps += 1
                next_units: list[UnitGM] = []
                for unit in units:
                    if unit.halted:
                        next_units.append(unit)
                        continue
                    next_units.extend(self._step(unit, metrics))
                units = self._collapse(next_units, metrics)
                metrics.peak_units = max(metrics.peak_units, len(units))
                if not units:
                    raise MachineError(
                        f"{self.name}: all units vanished (Load on an empty "
                        "relation)")
            sp.count("steps", metrics.steps)
            sp.count("spawns", metrics.spawns)
            sp.count("collapses", metrics.collapses)
        if len(units) != 1:
            raise MachineError(
                f"{self.name}: computation ended with {len(units)} units; "
                "a GM must collapse to a single unit")
        final = units[0]
        if final.tape != ():
            raise MachineError(
                f"{self.name}: final unit's tape is not empty: {final.tape!r}")
        return final.store, metrics

    def _step(self, unit: UnitGM, metrics: RunMetrics) -> list[UnitGM]:
        flags = {k: not v for k, v in unit.store.items()}
        action = self.transition(unit.state, unit.tape, flags)
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

    @staticmethod
    def _collapse(units: list[UnitGM], metrics: RunMetrics) -> list[UnitGM]:
        grouped: dict[tuple, UnitGM] = {}
        for unit in units:
            key = unit.key()
            if key in grouped:
                metrics.collapses += 1
                merged = grouped[key].store
                for name, tuples in unit.store.items():
                    merged[name] = merged.get(name, frozenset()) | tuples
            else:
                grouped[key] = UnitGM(unit.state, unit.tape,
                                      dict(unit.store))
        return list(grouped.values())


def loading_protocol(relation: str, output: str = "OUT") -> GenericMachine:
    """The Theorem 5.1 loading protocol as a GM program.

    Loads ``relation`` tuple by tuple: units that draw a duplicate erase
    their tapes and halt (they all collapse into the final unit); after
    each successful draw, a probe round loads once more, records any
    genuinely new tuple in the scratch relation ``NEW``, erases the
    probe, and collapses; if the collapsed ``NEW`` is empty the tape
    holds all of ``relation`` (in this unit's order) and loading stops.
    The surviving units then copy their tapes into ``output`` and halt —
    whereupon everything collapses to a single unit whose store maps
    ``output`` to the full relation.
    """

    def transition(state: str, tape: Tape, empty: Mapping[str, bool]) -> Action:
        if state == "start":
            return Continue("load", tape)
        if state == "load":
            return Load(relation, "check")
        if state == "check":
            if tape[-1] in tape[:-1]:
                return Halt(())  # duplicate draw: die into the collapse pool
            return Load(relation, "probe")
        if state == "probe":
            if tape[-1] in tape[:-1]:
                return Continue("merge", tape[:-1])
            return StoreTuple("NEW", tape[-1], "merge", tape[:-1])
        if state == "merge":
            if empty.get("NEW", True):
                return Continue("emit", tape)
            return ClearRelation("NEW", "load", tape)
        if state == "emit":
            if not tape:
                return Halt(())
            return StoreTuple(output, tape[-1], "emit", tape[:-1])
        raise MachineError(f"unknown state {state!r}")

    return GenericMachine(transition, name=f"load({relation})")
