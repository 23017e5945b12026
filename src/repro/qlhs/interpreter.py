"""The QLhs interpreter: semantics over the ``CB`` representation (§3.3).

Values are finite sets of characteristic-tree paths of a common rank —
"at any point during the computation of a program each term contains the
labels along some paths in Tⁿ, for some n".  Every operation consults
only the tree and the ``≅_B`` oracle, exactly as the completeness proof
requires; the whole infinite database is never touched.

Programs express *partial* queries, so execution is governed by a
:class:`~repro.trace.Budget` and raises :class:`~repro.errors.OutOfFuel`
(with a machine-readable reason) instead of diverging.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Mapping

from ..errors import RankMismatchError, TypeSignatureError
from ..symmetric.hsdb import HSDatabase
from ..trace import Budget, limits, span
from ..trace.budget import as_budget
from ..symmetric.tree import Path
from ..util.seqs import swap_last_two
from .ast import (
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


@dataclass(frozen=True)
class Value:
    """A QLhs value: representatives of some classes of one rank."""

    rank: int
    paths: frozenset[Path]

    def __post_init__(self):
        for p in self.paths:
            if len(p) != self.rank:
                raise RankMismatchError(
                    f"path {p!r} has rank {len(p)}, value has rank {self.rank}")

    @property
    def is_empty(self) -> bool:
        return not self.paths

    @property
    def is_singleton(self) -> bool:
        return len(self.paths) == 1

    def __len__(self) -> int:
        return len(self.paths)

    def __iter__(self):
        return iter(sorted(self.paths, key=repr))

    def __repr__(self) -> str:
        return f"Value(rank={self.rank}, {len(self.paths)} reps)"


def empty_value(rank: int = 0) -> Value:
    return Value(rank, frozenset())


class QLhsInterpreter:
    """Execute QLhs programs against an hs-r-db's ``CB`` representation.

    Parameters
    ----------
    hsdb:
        The database, as a Definition 3.7 representation.
    budget:
        A :class:`~repro.trace.Budget` governing the run; one step is
        one executed statement or term operation (bulk operations cost
        their output size).  Exceeding any dimension raises
        :class:`~repro.errors.OutOfFuel` (QLhs expresses partial
        queries).  An int ``N`` means ``Budget(max_steps=N)`` (default
        :data:`repro.trace.limits.QLHS_INTERPRETER`).
    """

    def __init__(self, hsdb: HSDatabase, *,
                 budget: Budget | int | None = None):
        self.hsdb = hsdb
        self.budget = as_budget(budget, default_steps=limits.QLHS_INTERPRETER)
        self._oracle_seen = hsdb.equiv.calls

    # -- accounting --------------------------------------------------------

    @property
    def steps(self) -> int:
        """Steps charged to the budget so far."""
        return self.budget.steps

    def _tick(self, cost: int = 1) -> None:
        self.budget.charge(cost)
        if self.budget.max_oracle_calls is not None:
            calls = self.hsdb.equiv.calls
            if calls > self._oracle_seen:
                self.budget.charge_oracle(calls - self._oracle_seen)
                self._oracle_seen = calls

    # -- fixed values -------------------------------------------------------

    def value_E(self) -> Value:
        """``E`` — the rank-2 representatives with equal coordinates."""
        return Value(2, frozenset(
            p for p in self.hsdb.tree.level(2) if p[0] == p[1]))

    def full_level(self, n: int) -> Value:
        """``Tⁿ`` as a value (used by complement)."""
        return Value(n, frozenset(self.hsdb.tree.level(n)))

    # -- term evaluation ----------------------------------------------------

    def eval_term(self, term: Term, store: Mapping[str, Value]) -> Value:
        self._tick()
        if isinstance(term, E):
            return self.value_E()
        if isinstance(term, Rel):
            if not 0 <= term.index < self.hsdb.k:
                raise TypeSignatureError(
                    f"Rel{term.index + 1} out of range for type "
                    f"{self.hsdb.signature}")
            return Value(self.hsdb.signature[term.index],
                         self.hsdb.representatives[term.index])
        if isinstance(term, VarT):
            if term.name not in store:
                # "Variables are initialized to the empty set."
                return empty_value(0)
            return store[term.name]
        if isinstance(term, Inter):
            left = self.eval_term(term.left, store)
            right = self.eval_term(term.right, store)
            if left.rank != right.rank:
                raise RankMismatchError(
                    f"∩ of rank {left.rank} and rank {right.rank}")
            return Value(left.rank, left.paths & right.paths)
        if isinstance(term, Comp):
            body = self.eval_term(term.body, store)
            return Value(body.rank,
                         self.full_level(body.rank).paths - body.paths)
        if isinstance(term, Up):
            body = self.eval_term(term.body, store)
            out = set()
            for p in body.paths:
                for a in self.hsdb.tree.children(p):
                    out.add(p + (a,))
            self._tick(len(out))
            return Value(body.rank + 1, frozenset(out))
        if isinstance(term, Down):
            body = self.eval_term(term.body, store)
            if body.rank == 0:
                # Documented deviation: ↓ on rank 0 is the empty rank-0
                # value, realizing the zero test of the counter encoding.
                return empty_value(0)
            out = set()
            for p in body.paths:
                out.add(self.hsdb.canonical_representative(p[1:]))
            self._tick(len(body.paths))
            return Value(body.rank - 1, frozenset(out))
        if isinstance(term, Swap):
            body = self.eval_term(term.body, store)
            if body.rank < 2:
                raise RankMismatchError("~ requires rank >= 2")
            out = {self.hsdb.canonical_representative(swap_last_two(p))
                   for p in body.paths}
            self._tick(len(body.paths))
            return Value(body.rank, frozenset(out))
        if isinstance(term, Product):
            left = self.eval_term(term.left, store)
            right = self.eval_term(term.right, store)
            m, n = left.rank, right.rank
            out = set()
            for r in self.hsdb.tree.level(m + n):
                head = self.hsdb.canonical_representative(r[:m]) if m else ()
                tail = self.hsdb.canonical_representative(r[m:]) if n else ()
                if head in left.paths and tail in right.paths:
                    out.add(r)
            self._tick(len(self.hsdb.tree.level(m + n)))
            return Value(m + n, frozenset(out))
        if isinstance(term, Permute):
            body = self.eval_term(term.body, store)
            if len(term.perm) != body.rank:
                raise RankMismatchError(
                    f"permutation of length {len(term.perm)} applied to "
                    f"rank-{body.rank} value")
            out = {self.hsdb.canonical_representative(
                tuple(p[i] for i in term.perm)) for p in body.paths}
            self._tick(len(body.paths))
            return Value(body.rank, frozenset(out))
        if isinstance(term, SelectEq):
            body = self.eval_term(term.body, store)
            i = term.i if term.i >= 0 else body.rank + term.i
            j = term.j if term.j >= 0 else body.rank + term.j
            if not (0 <= i < body.rank and 0 <= j < body.rank):
                raise RankMismatchError(
                    f"selection positions ({term.i}, {term.j}) out of range "
                    f"for rank {body.rank}")
            return Value(body.rank, frozenset(
                p for p in body.paths if p[i] == p[j]))
        raise TypeError(f"unknown term {term!r}")

    # -- program execution --------------------------------------------------

    def run(self, program: Program,
            inputs: Mapping[str, Value] | None = None,
            result_var: str = "Y1") -> Value:
        """Run a program; the result is the contents of ``result_var``."""
        store = self.execute(program, inputs)
        return store.get(result_var, empty_value(0))

    def execute(self, program: Program,
                inputs: Mapping[str, Value] | None = None
                ) -> dict[str, Value]:
        """Run a program and return the final store."""
        store: dict[str, Value] = dict(inputs or {})
        with span("qlhs.execute") as sp:
            steps_before = self.budget.steps
            oracle_before = self.hsdb.equiv.calls
            try:
                self._exec(program, store)
            finally:
                sp.count("steps", self.budget.steps - steps_before)
                sp.count("oracle_questions",
                         self.hsdb.equiv.calls - oracle_before)
        return store

    def _exec(self, program: Program, store: dict[str, Value]) -> None:
        self._tick()
        if isinstance(program, Assign):
            store[program.var] = self.eval_term(program.term, store)
            return
        if isinstance(program, Seq):
            for p in program.body:
                self._exec(p, store)
            return
        if isinstance(program, WhileEmpty):
            while store.get(program.var, empty_value(0)).is_empty:
                self._tick()
                self._exec(program.body, store)
            return
        if isinstance(program, WhileSingleton):
            while store.get(program.var, empty_value(0)).is_singleton:
                self._tick()
                self._exec(program.body, store)
            return
        raise TypeError(f"unknown program {program!r}")

    def value_from_tuples(self, tuples: Iterable[tuple]) -> Value:
        """Canonicalize arbitrary same-rank tuples into a value."""
        tuples = [tuple(t) for t in tuples]
        if not tuples:
            return empty_value(0)
        ranks = {len(t) for t in tuples}
        if len(ranks) != 1:
            raise RankMismatchError(f"mixed ranks {sorted(ranks)}")
        return Value(ranks.pop(), self.hsdb.canonicalize_set(tuples))

    def tuples_of(self, value: Value, per_class: int = 1,
                  window: int = 64) -> set[tuple]:
        """Concrete database tuples of the denoted relation (a finite
        sample: up to ``per_class`` tuples per class found among tuples
        over the first ``window`` domain elements)."""
        from itertools import product as _product

        out: set[tuple] = set()
        found: dict[Path, int] = {p: 0 for p in value.paths}
        pool = self.hsdb.domain.first(window)
        for u in _product(pool, repeat=value.rank):
            for p in value.paths:
                if found[p] < per_class and self.hsdb.equivalent(u, p):
                    out.add(u)
                    found[p] += 1
                    break
            if all(v >= per_class for v in found.values()):
                break
        return out
