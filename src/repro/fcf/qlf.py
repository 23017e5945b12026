"""QLf+ — QL over finite/co-finite databases (Section 4).

The syntax is QL's plus one construct::

    while |Y| < inf do P

and the semantics (the paper's three amendments):

1. values are :class:`~repro.fcf.relation.FcfValue` — a finite tuple set
   or a finite complement with the co-finite indicator;
2. ``e↑ = e × Df`` (defined only for finite ``e``) and
   ``E = {(a,a) : a ∈ Df}``;
3. the new test ``|Y| < ∞`` is true iff the value is finite.

Operations are carried out on the finite parts and the indicator only
(``¬e`` flips the indicator; ``e ∩ f`` with mixed shapes removes the
finitely many complement tuples) — the database's infinite extent is
never touched.

The result convention follows the paper: after a program halts, ``Y1``
holds the finite part of the answer and ``Y2`` holds ``{()}`` iff the
answer is co-finite.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Mapping

from ..errors import RankMismatchError, TypeSignatureError
from ..trace import Budget, limits, span
from ..trace.budget import as_budget
from ..qlhs.ast import (
    Assign,
    Comp,
    Down,
    E,
    Inter,
    Program,
    Rel,
    Seq,
    Swap,
    Term,
    Up,
    VarT,
    WhileEmpty,
    WhileSingleton,
)
from . import relation as fcf_ops
from .database import FcfDatabase
from .relation import FcfValue, empty_fcf


@dataclass(frozen=True)
class WhileFinite(Program):
    """``while |Y| < ∞ do P`` — the QLf+ addition."""

    var: str
    body: Program


class QLfInterpreter:
    """Execute QLf+ programs against an fcf-r-db."""

    def __init__(self, database: FcfDatabase, *,
                 budget: Budget | int | None = None):
        self.database = database
        self.df = sorted(database.df, key=repr)
        self.budget = as_budget(budget, default_steps=limits.QLF_INTERPRETER)

    @property
    def steps(self) -> int:
        """Steps charged to the budget so far."""
        return self.budget.steps

    def _tick(self, cost: int = 1) -> None:
        self.budget.charge(cost)

    def eval_term(self, term: Term,
                  store: Mapping[str, FcfValue]) -> FcfValue:
        self._tick()
        if isinstance(term, E):
            return fcf_ops.equality_over(self.df)
        if isinstance(term, Rel):
            if not 0 <= term.index < len(self.database.relations):
                raise TypeSignatureError(
                    f"Rel{term.index + 1} out of range")
            return self.database.relations[term.index]
        if isinstance(term, VarT):
            return store.get(term.name, empty_fcf(0))
        if isinstance(term, Inter):
            return fcf_ops.intersection(self.eval_term(term.left, store),
                                        self.eval_term(term.right, store))
        if isinstance(term, Comp):
            return fcf_ops.complement(self.eval_term(term.body, store))
        if isinstance(term, Up):
            return fcf_ops.up(self.eval_term(term.body, store), self.df)
        if isinstance(term, Down):
            return fcf_ops.down(self.eval_term(term.body, store))
        if isinstance(term, Swap):
            return fcf_ops.swap(self.eval_term(term.body, store))
        raise TypeError(
            f"QLf+ does not interpret {type(term).__name__} terms")

    def execute(self, program: Program,
                inputs: Mapping[str, FcfValue] | None = None
                ) -> dict[str, FcfValue]:
        """Run a program and return the final store."""
        store: dict[str, FcfValue] = dict(inputs or {})
        with span("qlf.execute") as sp:
            before = self.budget.steps
            try:
                self._exec(program, store)
            finally:
                sp.count("steps", self.budget.steps - before)
        return store

    def run(self, program: Program) -> tuple[FcfValue, bool]:
        """Run; return ``(finite part in Y1, answer-is-co-finite)``.

        The co-finite indicator is the paper's convention: ``Y2``
        contains ``{()}`` iff the answer is co-finite.
        """
        store = self.execute(program)
        finite_part = store.get("Y1", empty_fcf(0))
        indicator = store.get("Y2", empty_fcf(0))
        return finite_part, indicator.contains(())

    def result(self, program: Program) -> FcfValue:
        """Run and assemble the full fcf answer from Y1/Y2."""
        store = self.execute(program)
        finite_part = store.get("Y1", empty_fcf(0))
        indicator = store.get("Y2", empty_fcf(0))
        if indicator.contains(()):
            return FcfValue(finite_part.rank, finite_part.tuples,
                            cofinite=True)
        return finite_part

    def _exec(self, program: Program, store: dict[str, FcfValue]) -> None:
        self._tick()
        if isinstance(program, Assign):
            store[program.var] = self.eval_term(program.term, store)
            return
        if isinstance(program, Seq):
            for p in program.body:
                self._exec(p, store)
            return
        if isinstance(program, WhileEmpty):
            while self._is_empty(store.get(program.var)):
                self._tick()
                self._exec(program.body, store)
            return
        if isinstance(program, WhileSingleton):
            while self._is_singleton(store.get(program.var)):
                self._tick()
                self._exec(program.body, store)
            return
        if isinstance(program, WhileFinite):
            while store.get(program.var, empty_fcf(0)).is_finite:
                self._tick()
                self._exec(program.body, store)
            return
        raise TypeError(f"unknown program {program!r}")

    @staticmethod
    def _is_empty(value: FcfValue | None) -> bool:
        if value is None:
            return True
        return value.is_finite and not value.tuples

    @staticmethod
    def _is_singleton(value: FcfValue | None) -> bool:
        if value is None:
            return False
        return value.is_finite and len(value.tuples) == 1
