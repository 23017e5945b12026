"""Thin adapters lowering each query frontend into the plan IR.

The library grew four independent evaluation routes — the relativized FO
evaluator (Theorem 6.3), the QLhs interpreter (§3.3), QLf+ (Section 4),
and the GMhs pipeline (Theorem 5.1).  These adapters make the engine the
single entry point for all of them *without duplicating any compiler*:

* **L⁻ / FO** — :func:`plan_from_formula` reuses the existing
  calculus→algebra compiler :func:`repro.qlhs.from_logic.compile_formula`
  (itself exercised by the Theorem 6.3 test triangle) and then maps the
  resulting QLhs *term* — a pure, loop-free algebra — node-for-node into
  plan nodes via :func:`plan_from_term`;
* **QLhs** — :func:`plan_from_qlhs`: terms lower structurally; full
  programs (which carry ``while`` loops and a store) become a single
  :class:`~repro.engine.plan.Fixpoint` node, executed by the existing
  interpreter;
* **QLf+** — :func:`plan_from_qlf` wraps the program in an
  :class:`~repro.engine.plan.FcfFixpoint` node for engines over
  :class:`~repro.fcf.database.FcfDatabase`;
* **GMhs** — :func:`plan_from_gmhs` wraps a Theorem 5.1 query procedure
  in a :class:`~repro.engine.plan.MachineFixpoint` node, executed by
  :func:`repro.machines.gmhs_pipeline.run_query_gmhs`.

Because a loop-free QLhs *term* and its plan are structurally isomorphic
algebras, the equivalence tests can state "engine = direct evaluator"
relation-for-relation on the whole existing corpus.

The lowering here is deliberately **naive**: it mirrors the source
compilers exactly, projection tower for projection tower, so that its
correctness argument stays a structural induction against the paper's
own translations.  Making the output *fast* — collapsing the towers
into quantifier chains, grounding joins, folding constants — is
entirely the job of :mod:`repro.engine.optimize`, which
:meth:`Engine.prepare` runs over these plans by default.  Keep it that
way: an "optimization" added here would be invisible to the optimizer's
property battery and golden snapshots.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..errors import RankMismatchError, TypeSignatureError
from ..logic.syntax import Formula, Var
from ..qlhs import ast as q
from ..qlhs.from_logic import compile_formula
from ..trace import limits
from .plan import (
    Complement,
    Extend,
    FcfFixpoint,
    FilterEq,
    Fixpoint,
    FullScan,
    Intersect,
    Join,
    MachineFixpoint,
    Plan,
    Project,
    Scan,
)


# ---------------------------------------------------------------------------
# QLhs terms → plans (the shared lowering everything else reuses).
# ---------------------------------------------------------------------------

def term_rank(term: q.Term, signature: Sequence[int]) -> int:
    """Static rank of a loop-free, store-free QLhs term."""
    signature = tuple(signature)
    if isinstance(term, q.E):
        return 2
    if isinstance(term, q.Rel):
        if not 0 <= term.index < len(signature):
            raise TypeSignatureError(
                f"Rel{term.index + 1} out of range for type {signature}")
        return signature[term.index]
    if isinstance(term, q.VarT):
        raise TypeSignatureError(
            f"term variable {term.name!r} has no static rank; lower the "
            "whole program with plan_from_qlhs instead")
    if isinstance(term, q.Inter):
        left = term_rank(term.left, signature)
        right = term_rank(term.right, signature)
        if left != right:
            raise RankMismatchError(f"∩ of ranks {left} and {right}")
        return left
    if isinstance(term, q.Comp):
        return term_rank(term.body, signature)
    if isinstance(term, q.Up):
        return term_rank(term.body, signature) + 1
    if isinstance(term, q.Down):
        return max(term_rank(term.body, signature) - 1, 0)
    if isinstance(term, q.Swap):
        rank = term_rank(term.body, signature)
        if rank < 2:
            raise RankMismatchError("~ requires rank >= 2")
        return rank
    if isinstance(term, q.Product):
        return (term_rank(term.left, signature)
                + term_rank(term.right, signature))
    if isinstance(term, q.Permute):
        return len(term.perm)
    if isinstance(term, q.SelectEq):
        return term_rank(term.body, signature)
    raise TypeError(f"unknown term {term!r}")


def plan_from_term(term: q.Term, signature: Sequence[int]) -> Plan:
    """Lower a loop-free QLhs term into the plan IR, node for node.

    The mapping mirrors the interpreter's semantics exactly — including
    the documented rank-0 ``↓`` deviation (lowered to the provably empty
    ``¬T⁰``) — so engine execution and direct interpretation coincide.
    """
    signature = tuple(signature)
    if isinstance(term, q.E):
        return FilterEq(FullScan(2), 0, 1)
    if isinstance(term, q.Rel):
        term_rank(term, signature)  # range check
        return Scan(term.index)
    if isinstance(term, q.Inter):
        left = plan_from_term(term.left, signature)
        right = plan_from_term(term.right, signature)
        term_rank(term, signature)  # rank check
        return Intersect((left, right))
    if isinstance(term, q.Comp):
        return Complement(plan_from_term(term.body, signature))
    if isinstance(term, q.Up):
        return Extend(plan_from_term(term.body, signature))
    if isinstance(term, q.Down):
        n = term_rank(term.body, signature)
        if n == 0:
            # The interpreter's documented deviation: ↓ on rank 0 is the
            # empty rank-0 value — here ``T⁰ − T⁰``.
            return Complement(FullScan(0))
        return Project(plan_from_term(term.body, signature),
                       tuple(range(1, n)))
    if isinstance(term, q.Swap):
        n = term_rank(term.body, signature)
        if n < 2:
            raise RankMismatchError("~ requires rank >= 2")
        coords = tuple(range(n - 2)) + (n - 1, n - 2)
        return Project(plan_from_term(term.body, signature), coords)
    if isinstance(term, q.Product):
        return Join(plan_from_term(term.left, signature),
                    plan_from_term(term.right, signature))
    if isinstance(term, q.Permute):
        n = term_rank(term.body, signature)
        if len(term.perm) != n:
            raise RankMismatchError(
                f"permutation of length {len(term.perm)} applied to "
                f"rank-{n} term")
        return Project(plan_from_term(term.body, signature), term.perm)
    if isinstance(term, q.SelectEq):
        return FilterEq(plan_from_term(term.body, signature),
                        term.i, term.j)
    if isinstance(term, q.VarT):
        raise TypeSignatureError(
            f"term variable {term.name!r} cannot lower structurally; "
            "lower the whole program with plan_from_qlhs instead")
    raise TypeError(f"unknown term {term!r}")


# ---------------------------------------------------------------------------
# Frontend 1: L⁻ / FO formulas.
# ---------------------------------------------------------------------------

def plan_from_formula(formula: Formula, variables: Sequence[Var],
                      signature: Sequence[int]) -> Plan:
    """Lower an FO (or quantifier-free L⁻) formula into a plan.

    ``variables`` fixes the free-variable → coordinate order, exactly as
    in :func:`repro.qlhs.from_logic.compile_formula` (which performs the
    actual compilation; this adapter only changes the target algebra).
    A sentence (``variables = []``) lowers to a rank-0 plan whose
    nonemptiness is its truth value.
    """
    term = compile_formula(formula, list(variables), tuple(signature))
    return plan_from_term(term, signature)


def plan_from_sentence(sentence: Formula,
                       signature: Sequence[int]) -> Plan:
    """A sentence as a rank-0 plan (truth = nonemptiness)."""
    return plan_from_formula(sentence, [], signature)


# ---------------------------------------------------------------------------
# Frontend 2: QLhs programs (and bare terms).
# ---------------------------------------------------------------------------

def plan_from_qlhs(program: q.Program | q.Term,
                   result_var: str = "Y1",
                   signature: Sequence[int] | None = None) -> Plan:
    """Lower QLhs into the IR.

    Bare loop-free terms lower structurally (full algebraic caching and
    normalization apply); programs — which may loop — become one
    :class:`~repro.engine.plan.Fixpoint` node whose payload is the
    (hashable) program AST, so repeated executions still hit the result
    cache.
    """
    if isinstance(program, q.Term):
        if signature is None:
            raise TypeSignatureError(
                "lowering a bare term needs the database type signature")
        return plan_from_term(program, signature)
    return Fixpoint(program, result_var)


# ---------------------------------------------------------------------------
# Frontend 3: QLf+ programs over fcf databases.
# ---------------------------------------------------------------------------

def plan_from_qlf(program: q.Program) -> Plan:
    """Lower a QLf+ program (Section 4 semantics) into the IR."""
    return FcfFixpoint(program)


# ---------------------------------------------------------------------------
# FO formulas as GMhs query procedures (the Theorem 5.1 bridge).
# ---------------------------------------------------------------------------

def procedure_from_formula(formula: Formula,
                           variables: Sequence[Var] = ()):
    """An FO formula as a Theorem 5.1 query procedure.

    The returned procedure speaks only the :class:`~repro.qlhs.
    completeness.ModelOracle` protocol — ``atom`` / ``equiv`` /
    ``children`` questions over positions of the encoding tuple ``d`` —
    so it runs under both completeness pipelines (QLhs and GMhs) and
    under :class:`~repro.engine.plan.MachineFixpoint` plans.  The
    semantics is the Theorem 6.3 relativization: quantifiers range over
    the oracle's ``children`` (one position per extension class), and
    equality of two positions is decided by the ``≅`` question
    ``(a, b) ≅ (a, a)`` (equivalent tuples share their equality
    pattern, so the answer is exactly ``d[a] = d[b]``).

    ``variables`` fixes the free-variable → coordinate order; a
    sentence (the default) yields ``{()}`` when it holds, ``set()``
    otherwise.
    """
    from ..logic.syntax import (
        And, Eq, Exists, FalseF, Forall, Implies, Not, Or, RelAtom, TrueF,
    )
    variables = tuple(variables)

    def positions_equal(oracle, a: int, b: int) -> bool:
        if a == b:
            return True
        return oracle.equiv((a, b), (a, a))

    def holds(oracle, f: Formula, env: tuple[int, ...], slots) -> bool:
        if isinstance(f, TrueF):
            return True
        if isinstance(f, FalseF):
            return False
        if isinstance(f, Eq):
            return positions_equal(oracle, env[slots[f.left]],
                                   env[slots[f.right]])
        if isinstance(f, RelAtom):
            return oracle.atom(f.index,
                               tuple(env[slots[a]] for a in f.args))
        if isinstance(f, Not):
            return not holds(oracle, f.body, env, slots)
        if isinstance(f, And):
            return all(holds(oracle, c, env, slots) for c in f.children)
        if isinstance(f, Or):
            return any(holds(oracle, c, env, slots) for c in f.children)
        if isinstance(f, Implies):
            return (not holds(oracle, f.left, env, slots)
                    or holds(oracle, f.right, env, slots))
        if isinstance(f, (Exists, Forall)):
            slots = dict(slots)
            slots[f.var] = len(env)
            branches = (holds(oracle, f.body, env + (c,), slots)
                        for c in oracle.children(env))
            return any(branches) if isinstance(f, Exists) else all(branches)
        raise TypeError(f"unknown formula {f!r}")

    def procedure(oracle) -> set:
        slots = {v: i for i, v in enumerate(variables)}
        frontier: list[tuple[int, ...]] = [()]
        for __ in variables:
            frontier = [env + (c,) for env in frontier
                        for c in oracle.children(env)]
        return {env for env in frontier
                if holds(oracle, formula, env, slots)}

    return procedure


# ---------------------------------------------------------------------------
# Frontend 4: GMhs query procedures.
# ---------------------------------------------------------------------------

def plan_from_gmhs(procedure, search_window: int = 512, *,
                   max_steps: int | None = None) -> Plan:
    """Lower a Theorem 5.1 query procedure into the IR.

    The procedure is the same :data:`~repro.qlhs.completeness.
    QueryProcedure` convention both completeness pipelines consume.
    ``max_steps`` caps the GMhs loading stage (default
    :data:`repro.trace.limits.MACHINE_FIXPOINT`).
    """
    if max_steps is None:
        max_steps = limits.MACHINE_FIXPOINT
    return MachineFixpoint(procedure, search_window=search_window,
                           max_steps=max_steps)


# ---------------------------------------------------------------------------
# lower_all: one semantic query through every applicable frontend.
# ---------------------------------------------------------------------------

#: Route names produced by :func:`lower_all`, in emission order.
ROUTE_FO = "fo"                # structural algebra plan (Theorem 6.3 route)
ROUTE_QLHS = "qlhs"            # Fixpoint plan run by the QLhs interpreter
ROUTE_GMHS = "gmhs"            # MachineFixpoint plan (Theorem 5.1 route)
ROUTE_QLF = "qlf"              # FcfFixpoint plan (Section 4 route)

#: Routes whose plans execute on an Engine over an ``HSDatabase``.
HS_ROUTES = (ROUTE_FO, ROUTE_QLHS, ROUTE_GMHS)
#: Routes whose plans execute on an Engine over an ``FcfDatabase``.
FCF_ROUTES = (ROUTE_QLF,)


def lower_all(query, signature: Sequence[int], *,
              variables: Sequence[Var] = (),
              include_gmhs: bool = False,
              include_qlf: bool = False) -> dict[str, Plan]:
    """Lower one semantic query through **every applicable frontend**.

    This is the differential-testing hook (:mod:`repro.check`): the
    paper's completeness theorems are equivalence claims between the
    frontends, so the same query lowered along every route must yield
    :meth:`agreeing <repro.engine.verdict.Verdict.agrees>` verdicts.

    ``query`` may be an FO :class:`~repro.logic.syntax.Formula`
    (``variables`` fixes the free-variable order), a QLhs
    :class:`~repro.qlhs.ast.Term`, or a QLhs
    :class:`~repro.qlhs.ast.Program`.  The result maps route name →
    plan:

    * ``"fo"`` — the structural algebra plan (pure plan-IR execution);
    * ``"qlhs"`` — a :class:`~repro.engine.plan.Fixpoint` plan whose
      payload is a one-assignment program, executed by the QLhs
      *interpreter* (a genuinely different execution path);
    * ``"gmhs"`` (``include_gmhs=True``, formulas only) — a
      :class:`~repro.engine.plan.MachineFixpoint` plan wrapping
      :func:`procedure_from_formula` (the Theorem 5.1 pipeline);
    * ``"qlf"`` (``include_qlf=True``, intrinsic-free terms/programs
      only) — an :class:`~repro.engine.plan.FcfFixpoint` plan for an
      Engine over the corresponding
      :class:`~repro.fcf.database.FcfDatabase`.

    Plans in :data:`HS_ROUTES` execute on an Engine over an
    :class:`~repro.symmetric.hsdb.HSDatabase`; plans in
    :data:`FCF_ROUTES` need an Engine over the fcf view of the *same*
    database (Proposition 4.1's bridge).
    """
    from ..logic.syntax import Formula as _Formula
    plans: dict[str, Plan] = {}
    if isinstance(query, _Formula):
        term = compile_formula(query, list(variables), tuple(signature))
        plans[ROUTE_FO] = plan_from_term(term, signature)
        plans[ROUTE_QLHS] = Fixpoint(q.Assign("Y1", term), "Y1")
        if include_gmhs:
            plans[ROUTE_GMHS] = plan_from_gmhs(
                procedure_from_formula(query, variables))
        return plans
    if isinstance(query, q.Term):
        plans[ROUTE_FO] = plan_from_term(query, signature)
        program: q.Program = q.Assign("Y1", query)
        plans[ROUTE_QLHS] = Fixpoint(program, "Y1")
        if include_qlf and not q.term_uses_intrinsics(query):
            plans[ROUTE_QLF] = FcfFixpoint(program)
        return plans
    if isinstance(query, q.Program):
        plans[ROUTE_QLHS] = Fixpoint(query, "Y1")
        if include_qlf and not q.program_uses_intrinsics(query):
            plans[ROUTE_QLF] = FcfFixpoint(query)
        return plans
    raise TypeSignatureError(
        f"lower_all cannot lower {type(query).__name__} queries")
