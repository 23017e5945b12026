"""QL — the original Chandra–Harel complete language for finite databases.

The paper's QLhs "is a slight variation of the QL language for finite
data bases, proposed by Chandra and Harel [CH]".  This module implements
the original: the same term and program syntax (we reuse the QLhs AST
and parser), interpreted over an explicit finite database.  It serves as

* the baseline of benchmark E6 (QLhs over ``CB`` versus QL over growing
  finite unfoldings of the same infinite database), and
* the finitary engine referenced by the QLf+ semantics of Section 4.

Differences from QLhs, mirroring the paper:

* values are explicit tuple sets over the finite domain, not class
  representatives;
* ``E`` is ``{(a,a) : a ∈ D}`` and ``e↑`` is ``e × D``;
* the singleton test ``|Y| = 1`` is *derivable* in finite QL (via
  ``perm(D)``, as footnote 8 recounts); we support it directly so the
  same programs run under both interpreters.
"""

from __future__ import annotations

from collections.abc import Mapping

from ..core.database import RecursiveDatabase
from ..errors import RankMismatchError, TypeSignatureError
from ..trace import Budget, limits, span
from ..trace.budget import as_budget
from ..qlhs.ast import (
    Assign,
    Comp,
    Down,
    E,
    Inter,
    Permute,
    Product,
    Program,
    Rel,
    SelectEq,
    Seq,
    Swap,
    Term,
    Up,
    VarT,
    WhileEmpty,
    WhileSingleton,
)
from . import algebra
from .algebra import FiniteValue


class QLInterpreter:
    """Execute QL programs against a finite-domain database."""

    def __init__(self, database: RecursiveDatabase, *,
                 budget: Budget | int | None = None):
        if not database.domain.is_finite:
            raise TypeSignatureError(
                "QL interprets over finite databases; for infinite "
                "hs-r-dbs use QLhsInterpreter")
        self.database = database
        self.domain = database.domain.first(database.domain.finite_size)
        self.budget = as_budget(budget, default_steps=limits.QL_INTERPRETER)

    @property
    def steps(self) -> int:
        """Steps charged to the budget so far."""
        return self.budget.steps

    def _tick(self, cost: int = 1) -> None:
        self.budget.charge(cost)

    def eval_term(self, term: Term,
                  store: Mapping[str, FiniteValue]) -> FiniteValue:
        self._tick()
        if isinstance(term, E):
            return algebra.equality(self.domain)
        if isinstance(term, Rel):
            relation = self.database.relations[term.index]
            tuples = getattr(relation, "tuples", None)
            if tuples is None:
                raise TypeSignatureError(
                    "QL requires explicitly finite relations")
            return FiniteValue(relation.arity, tuples)
        if isinstance(term, VarT):
            if term.name not in store:
                return algebra.empty(0)
            return store[term.name]
        if isinstance(term, Inter):
            return algebra.intersection(self.eval_term(term.left, store),
                                        self.eval_term(term.right, store))
        if isinstance(term, Comp):
            return algebra.complement(self.eval_term(term.body, store),
                                      self.domain)
        if isinstance(term, Up):
            body = self.eval_term(term.body, store)
            self._tick(len(body) * max(1, len(self.domain)))
            return algebra.up(body, self.domain)
        if isinstance(term, Down):
            return algebra.down(self.eval_term(term.body, store))
        if isinstance(term, Swap):
            return algebra.swap(self.eval_term(term.body, store))
        if isinstance(term, Product):
            return algebra.cartesian(self.eval_term(term.left, store),
                                     self.eval_term(term.right, store))
        if isinstance(term, Permute):
            return algebra.permute(self.eval_term(term.body, store),
                                   term.perm)
        if isinstance(term, SelectEq):
            return algebra.select_eq(self.eval_term(term.body, store),
                                     term.i, term.j)
        raise TypeError(f"unknown term {term!r}")

    def execute(self, program: Program,
                inputs: Mapping[str, FiniteValue] | None = None
                ) -> dict[str, FiniteValue]:
        """Run a program and return the final store."""
        store: dict[str, FiniteValue] = dict(inputs or {})
        with span("ql.execute") as sp:
            before = self.budget.steps
            try:
                self._exec(program, store)
            finally:
                sp.count("steps", self.budget.steps - before)
        return store

    def run(self, program: Program,
            inputs: Mapping[str, FiniteValue] | None = None,
            result_var: str = "Y1") -> FiniteValue:
        return self.execute(program, inputs).get(result_var,
                                                 algebra.empty(0))

    def _exec(self, program: Program, store: dict[str, FiniteValue]) -> None:
        self._tick()
        if isinstance(program, Assign):
            store[program.var] = self.eval_term(program.term, store)
            return
        if isinstance(program, Seq):
            for p in program.body:
                self._exec(p, store)
            return
        if isinstance(program, WhileEmpty):
            while store.get(program.var, algebra.empty(0)).is_empty:
                self._tick()
                self._exec(program.body, store)
            return
        if isinstance(program, WhileSingleton):
            while store.get(program.var, algebra.empty(0)).is_singleton:
                self._tick()
                self._exec(program.body, store)
            return
        raise TypeError(f"unknown program {program!r}")
