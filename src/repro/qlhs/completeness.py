"""The Theorem 3.1 completeness pipeline — the program ``P_Q``.

Given a recursive generic hs-r-query ``Q`` (here: any Python procedure
operating on an ℕ-encoded model, standing for the Turing machine ``M``
of Definition 3.9), the proof exhibits a QLhs program computing it in
four steps, all implemented here on top of the interpreter's operations:

1. **Find d** — a tuple of distinct elements whose projections recover
   every ``Cᵢ`` (searched through ``Vⁿ`` computations; we reuse the same
   search the proof describes, checking candidates level by level);
2. **Encode** — compute the position sets ``Xⱼ`` making
   ``(|d|, X₁,…,X_k)`` an ℕ-model ``B_N`` isomorphic to ``B``'s
   restriction to ``d``'s class;
3. **Run M** — execute the query procedure on ``B_N``, answering its
   ``T_{B_N}``/``≅_{B_N}`` questions through ``d`` (``d[x]↓``-style
   projections and ``d[x] = d[y]`` checks);
4. **Decode** — map the output position-tuples back through ``d`` to
   representatives: ``Q(CB) = ⋃ d[i₁,…,i_m]``.

The partition machinery the proof builds ``d`` from — ``Vⁿ₀`` by
refinement splits, ``Vⁿᵣ = Vⁿ⁺ʳ₀↓ʳ``, the ``|Vᵢ| = 1`` detection — is
implemented with genuine QLhs term operations (``↑``, ``↓``, ``∩``, ``¬``
and the [CH]-definable selection intrinsics), so the pipeline really is
the paper's program, with Python only supplying control flow (which QLhs
possesses by the counter-machine result, :mod:`repro.qlhs.counter_compile`).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from itertools import product

from ..errors import NotHighlySymmetricError
from ..symmetric.hsdb import HSDatabase
from ..symmetric.tree import Path
from ..trace import limits, span
from ..trace.budget import as_budget
from ..util.seqs import distinct, project
from .ast import Down, Term
from .derived import (
    full_term,
    select_atom,
    select_equal,
    select_not_atom,
    select_not_equal,
)
from .interpreter import QLhsInterpreter, Value

NModel = list[frozenset[tuple[int, ...]]]
QueryProcedure = Callable[["ModelOracle"], set]
"""A procedure standing for the oracle TM ``M``: consumes a
:class:`ModelOracle` and returns a set of position tuples."""


def full_level_value(interp: QLhsInterpreter, n: int) -> Value:
    """``Tⁿ`` computed as the paper does: ``(E↓↓)↑ⁿ``."""
    return interp.eval_term(full_term(n), {})


def compute_v_n_0(interp: QLhsInterpreter, n: int) -> list[Value]:
    """``Vⁿ₀`` by refinement splits, exactly as ``P_Q`` computes it.

    Start from ``Tⁿ`` and repeatedly split blocks "by checking the
    containment or non-containment of all possible projections of the
    appropriate tuples in the relations of B", plus the equality
    selections that distinguish equality patterns.  Splitting uses only
    QLhs term operations.
    """
    hsdb = interp.hsdb
    blocks = [full_level_value(interp, n)]

    def split(block: Value, selector: Term, the_rest: Term) -> list[Value]:
        a = interp.eval_term(selector, {"__blk": block})
        b = interp.eval_term(the_rest, {"__blk": block})
        out = [v for v in (a, b) if not v.is_empty]
        return out if len(out) == 2 else [block]

    from .ast import VarT
    blk = VarT("__blk")

    selectors: list[tuple[Term, Term]] = []
    for i in range(n):
        for j in range(i + 1, n):
            selectors.append((select_equal(blk, i, j),
                              select_not_equal(blk, i, j)))
    for rel_index, arity in enumerate(hsdb.signature):
        for positions in product(range(n), repeat=arity):
            selectors.append((
                select_atom(blk, n, rel_index, arity, positions),
                select_not_atom(blk, n, rel_index, arity, positions),
            ))

    changed = True
    while changed:
        changed = False
        next_blocks: list[Value] = []
        for block in blocks:
            pieces = [block]
            for selector, rest in selectors:
                refined: list[Value] = []
                for piece in pieces:
                    parts = split(piece, selector, rest)
                    refined.extend(parts)
                if len(refined) > len(pieces):
                    changed = True
                pieces = refined
            next_blocks.extend(pieces)
        blocks = next_blocks
    return blocks


def project_blocks(interp: QLhsInterpreter, blocks: Sequence[Value],
                   n: int) -> list[Value]:
    """The ``↓`` step of Definition 3.6, inducing the partition of ``Tⁿ``.

    Each block is projected with the QLhs ``↓`` term; paths of ``Tⁿ``
    are regrouped by which projected blocks contain them (two paths
    separate exactly when some ``Vᵢ↓`` contains one but not the other —
    Proposition 3.7).
    """
    from .ast import VarT

    projected = [interp.eval_term(Down(VarT("__blk")), {"__blk": b})
                 for b in blocks]
    level = interp.hsdb.tree.level(n)
    groups: dict[frozenset[int], set[Path]] = {}
    for u in level:
        signature = frozenset(i for i, pb in enumerate(projected)
                              if u in pb.paths)
        groups.setdefault(signature, set()).add(u)
    return [Value(n, frozenset(paths)) for paths in groups.values()]


def compute_v_n_r(interp: QLhsInterpreter, n: int, r: int) -> list[Value]:
    """``Vⁿᵣ = Vⁿ⁺ʳ₀ ↓ʳ`` (Corollary 3.3), as block values."""
    blocks = compute_v_n_0(interp, n + r)
    for depth in range(n + r - 1, n - 1, -1):
        blocks = project_blocks(interp, blocks, depth)
    return blocks


def compute_v_n(interp: QLhsInterpreter, n: int,
                max_r: int = 32) -> tuple[list[Value], int]:
    """``Vⁿ`` via the ``|Vᵢ| = 1`` detection loop of ``P_Q``."""
    for r in range(max_r + 1):
        blocks = compute_v_n_r(interp, n, r)
        if all(b.is_singleton for b in blocks):
            return blocks, r
    raise NotHighlySymmetricError(
        f"V^{n}_r did not reach singletons within r={max_r}")


def find_d_qlhs(interp: QLhsInterpreter, max_n: int = 10) -> Path:
    """Step 1 of ``P_Q``: the encoding tuple.

    For n = 1, 2, …, walk the rank-n representatives (the paper isolates
    them via the ``Vⁿ`` computation; our ``CB`` interpreter reads them
    off ``(E↓↓)↑ⁿ`` directly — the ``Vⁿ`` machinery itself is exercised
    separately by :func:`compute_v_n`) and return the first
    distinct-element path whose projections cover every ``Cᵢ``.
    """
    hsdb = interp.hsdb
    needed = {x for reps in hsdb.representatives for p in reps for x in p}
    bound = min(max_n, max(1, len(needed)))
    for n in range(1, bound + 1):
        level = full_level_value(interp, n).paths
        for d in hsdb.tree.level(n):  # deterministic order over the same set
            if d not in level or not distinct(d):
                continue
            if _encodes_all(hsdb, d):
                return d
    raise NotHighlySymmetricError(
        f"no encoding tuple found up to rank {bound}")


def _encodes_all(hsdb: HSDatabase, d: Path) -> bool:
    for arity, reps in zip(hsdb.signature, hsdb.representatives):
        for c in reps:
            if not any(hsdb.equivalent(project(d, pos), c)
                       for pos in product(range(len(d)), repeat=arity)):
                return False
    return True


def encode_n_model(hsdb: HSDatabase, d: Path) -> NModel:
    """Step 2: the position sets ``Xⱼ`` (the internal model ``B_N``)."""
    n = len(d)
    out: NModel = []
    for i, arity in enumerate(hsdb.signature):
        out.append(frozenset(
            pos for pos in product(range(n), repeat=arity)
            if hsdb.contains(i, project(d, pos))))
    return out


class ModelOracle:
    """The ℕ-model ``B_N`` as the Turing machine ``M`` sees it (Step 3).

    Positions ``0 … size−1`` name the components of the (growing)
    encoding tuple ``d``.  The oracle answers exactly the question forms
    the proof enumerates:

    * ``atom(i, positions)`` — "is the projection in ``Rᵢ``?", answered
      by ``d``-projection and real membership;
    * ``equiv(u, v)`` — "is ``x ≅_{B_N} y``?", answered by checking
      ``d[x] ≅_B d[y]``;
    * ``children(positions)`` — "what is ``T_{B_N}(x)``?": the tree
      offspring of the projection's representative, *encoded back* as
      positions.  When a child class has no witness among ``d``'s
      elements, ``d`` is extended with a fresh witness — the proof's
      "P_Q computes a larger d as it did for the original one".
    """

    def __init__(self, hsdb: HSDatabase, d: Path, search_window: int = 512):
        self.hsdb = hsdb
        self.elements: list = list(d)
        self.search_window = search_window
        self.extensions = 0

    @property
    def size(self) -> int:
        return len(self.elements)

    def _project(self, positions: Sequence[int]) -> tuple:
        return tuple(self.elements[p] for p in positions)

    def atom(self, relation_index: int, positions: Sequence[int]) -> bool:
        """Membership of a projection in a relation of ``B_N``."""
        return self.hsdb.contains(relation_index, self._project(positions))

    def equiv(self, u: Sequence[int], v: Sequence[int]) -> bool:
        """``≅_{B_N}`` between position tuples."""
        return self.hsdb.equivalent(self._project(u), self._project(v))

    def relations(self) -> NModel:
        """The materialized position sets ``Xⱼ`` over the current size."""
        out: NModel = []
        for i, arity in enumerate(self.hsdb.signature):
            out.append(frozenset(
                pos for pos in product(range(self.size), repeat=arity)
                if self.atom(i, pos)))
        return out

    def children(self, positions: Sequence[int]) -> list[int]:
        """``T_{B_N}(x)``: one position per extension class of ``x``."""
        base = self._project(positions)
        rep = self.hsdb.canonical_representative(base)
        out = []
        for a in self.hsdb.tree.children(rep):
            target = rep + (a,)
            out.append(self._position_realizing(base, target))
        return out

    def _position_realizing(self, base: tuple, target: Path) -> int:
        """A position ``e`` with ``base + (d[e],) ≅_B target``; extends
        ``d`` with a fresh domain witness when none exists yet."""
        for pos, element in enumerate(self.elements):
            if self.hsdb.equivalent(base + (element,), target):
                return pos
        for candidate in self.hsdb.domain.first(self.search_window):
            if candidate in self.elements:
                continue
            if self.hsdb.equivalent(base + (candidate,), target):
                self.elements.append(candidate)
                self.extensions += 1
                return len(self.elements) - 1
        raise NotHighlySymmetricError(
            f"no witness for extension class {target!r} within the first "
            f"{self.search_window} domain elements")


class PQPipeline:
    """End-to-end ``P_Q``: run a recursive generic query through QLhs.

    The query is a Python procedure ``machine(oracle)`` standing for the
    oracle Turing machine ``M`` of Definition 3.9; it must consult the
    database only through the :class:`ModelOracle` and return a set of
    position tuples (the representatives of ``Q(B_N)``).  The pipeline
    finds ``d`` (Step 1, via QLhs values), encodes (Step 2), runs the
    machine against the oracle (Step 3), and decodes the output
    positions back through ``d`` into tree representatives (Step 4's
    ``⋃ d[i₁,…,i_m]``).
    """

    def __init__(self, hsdb: HSDatabase, search_window: int = 512, *,
                 budget=None):
        self.hsdb = hsdb
        self.budget = as_budget(budget, default_steps=limits.PQ_PIPELINE)
        self.interpreter = QLhsInterpreter(hsdb, budget=self.budget)
        self.search_window = search_window

    def execute(self, machine: QueryProcedure, max_n: int = 10) -> Value:
        """Run the four proof steps; see the class docstring."""
        with span("pq.execute", database=self.hsdb.name):
            with span("pq.find_d") as sp:
                d = find_d_qlhs(self.interpreter, max_n=max_n)
                sp.set(d=repr(d))
                sp.count("steps", self.interpreter.steps)
            with span("pq.encode"):
                oracle = ModelOracle(self.hsdb, d,
                                     search_window=self.search_window)
            with span("pq.machine") as sp:
                before = self.hsdb.equiv.calls
                output = machine(oracle)
                sp.count("oracle_questions",
                         self.hsdb.equiv.calls - before)
            with span("pq.decode"):
                return self._decode(oracle, output)

    def _decode(self, oracle: ModelOracle, output) -> Value:
        """Step 4: fold output positions back into tree representatives."""
        if not output:
            return Value(0, frozenset())
        ranks = {len(pos) for pos in output}
        if len(ranks) != 1:
            raise NotHighlySymmetricError(
                "a generic query yields tuples of one common rank "
                "(Proposition 2.3.3); the machine returned mixed ranks")
        reps = {
            self.hsdb.canonical_representative(
                tuple(oracle.elements[p] for p in pos))
            for pos in output
        }
        return Value(ranks.pop(), frozenset(reps))
