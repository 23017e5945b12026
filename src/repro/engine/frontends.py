"""Thin adapters lowering each query frontend into the plan IR.

The library grew four independent evaluation routes — the relativized FO
evaluator (Theorem 6.3), the QLhs interpreter (§3.3), QLf+ (Section 4),
and the GMhs pipeline (Theorem 5.1).  These adapters make the engine the
single entry point for all of them *without duplicating any compiler*:

* **L⁻ / FO** — :func:`plan_from_formula` lowers a formula with ``k``
  variables in scope straight into a rank-``k`` plan, relativizing each
  quantifier to the characteristic tree as Theorem 6.3 does: atoms
  filter ``Tᵏ``, connectives become set operations, and ``∃``/``∀``
  become :class:`~repro.engine.plan.Quantify` over the ``k+1`` context.
  The paper's macro compilation,
  :func:`repro.qlhs.from_logic.compile_formula`, stays the ``qlhs``
  route's lowering and is reachable as a plan through
  :func:`plan_from_formula_macro`;
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

Each lowering is a structural induction over its source: one plan node
per source node, so that its correctness argument stays a case split
against the paper's own semantics (the direct FO lowering's against
the Theorem 6.3 evaluator, ``plan_from_term``'s against the QLhs
interpreter).  The FO lowering's plans are as wide as the formula's
variable scope — no node's rank exceeds the number of variables in
scope.  Anything beyond that — folding constants, grounding joins,
pushing quantifiers — is the job of :mod:`repro.engine.optimize`, which
:meth:`Engine.prepare` runs over these plans by default, where the
optimizer's property battery and golden snapshots see it.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..errors import RankMismatchError, TypeSignatureError
from ..logic.syntax import (
    And,
    Eq,
    Exists,
    FalseF,
    Forall,
    Formula,
    Implies,
    Not,
    Or,
    RelAtom,
    TrueF,
    Var,
)
from ..qlhs import ast as q
from ..qlhs.from_logic import check_formula, compile_formula
from ..trace import limits
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
        n = term_rank(term.body, signature)
        if len(term.perm) != n:
            raise RankMismatchError(
                f"permutation of length {len(term.perm)} applied to "
                f"rank-{n} term")
        return n
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

    ``variables`` fixes the free-variable → coordinate order, and the
    formula is checked against it and the signature exactly as
    :func:`repro.qlhs.from_logic.compile_formula` checks it.  With
    ``k`` variables in scope:

    * ``true``/``false`` become ``Tᵏ``/``∅ᵏ``; an atom becomes
      ``FilterAtom(Tᵏ, R, positions)`` and ``x = y`` becomes
      ``FilterEq(Tᵏ, i, j)``;
    * ``¬``, ``∧``, ``∨`` and ``→`` become ``Complement``,
      ``Intersect`` and ``Union``;
    * ``∃x``/``∀x`` become :class:`~repro.engine.plan.Quantify` over
      the body lowered at ``k+1``, where ``x`` names the new last
      coordinate (shadowing an outer ``x``, as in the evaluator).

    A sentence (``variables = []``) lowers to a rank-0 plan whose
    nonemptiness is its truth value.
    """
    variables = list(variables)
    check_formula(formula, variables, signature)
    return _lower_formula(formula, {v: i for i, v in enumerate(variables)},
                          len(variables))


def _lower_formula(formula: Formula, slots: dict[Var, int],
                   k: int) -> Plan:
    """The rank-``k`` plan of a checked formula; ``slots`` maps each
    variable in scope to its coordinate."""
    if isinstance(formula, TrueF):
        return FullScan(k)
    if isinstance(formula, FalseF):
        return Empty(k)
    if isinstance(formula, Eq):
        return FilterEq(FullScan(k), slots[formula.left],
                        slots[formula.right])
    if isinstance(formula, RelAtom):
        return FilterAtom(FullScan(k), formula.index,
                          [slots[a] for a in formula.args])
    if isinstance(formula, Not):
        return Complement(_lower_formula(formula.body, slots, k))
    if isinstance(formula, (And, Or)):
        parts = [_lower_formula(c, slots, k) for c in formula.children]
        if isinstance(formula, And):
            return Intersect(parts) if parts else FullScan(k)
        return Union(parts) if parts else Empty(k)
    if isinstance(formula, Implies):
        return Union((Complement(_lower_formula(formula.left, slots, k)),
                      _lower_formula(formula.right, slots, k)))
    if isinstance(formula, (Exists, Forall)):
        inner = {**slots, formula.var: k}
        return Quantify(_lower_formula(formula.body, inner, k + 1),
                        EXISTS if isinstance(formula, Exists) else FORALL)
    raise TypeError(f"unknown formula node {formula!r}")


def plan_from_sentence(sentence: Formula,
                       signature: Sequence[int]) -> Plan:
    """A sentence as a rank-0 plan (truth = nonemptiness)."""
    return plan_from_formula(sentence, [], signature)


def plan_from_formula_macro(formula: Formula, variables: Sequence[Var],
                            signature: Sequence[int]) -> Plan:
    """The paper's macro lowering of a formula: the calculus → algebra
    compilation :func:`repro.qlhs.from_logic.compile_formula`, mapped
    node for node by :func:`plan_from_term`.

    It denotes what :func:`plan_from_formula` denotes, through
    projection towers and ``select_atom`` joins: an atom of arity ``a``
    under ``k`` variables in scope joins ``Tᵏ`` with the relation, a
    rank-``k + a`` node.  The ``qlhs`` route runs the same term, and the
    optimizer's golden tests pin their shapes on these plans.
    """
    term = compile_formula(formula, list(variables), tuple(signature))
    return plan_from_term(term, signature)


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


def _lower_route(query, route: str, signature: Sequence[int],
                 variables: Sequence[Var]) -> Plan | None:
    """One route of :func:`lower_all`, or ``None`` when the route cannot
    express the query: ``fo`` takes formulas and terms, ``qlhs``
    everything, ``gmhs`` formulas only, and ``qlf`` terms and programs
    free of the hs intrinsics."""
    if isinstance(query, Formula):
        if route == ROUTE_FO:
            return plan_from_formula(query, variables, signature)
        if route == ROUTE_QLHS:
            term = compile_formula(query, list(variables), tuple(signature))
            return Fixpoint(q.Assign("Y1", term), "Y1")
        check_formula(query, variables, signature)
        if route == ROUTE_GMHS:
            return plan_from_gmhs(procedure_from_formula(query, variables))
        return None
    if isinstance(query, q.Term):
        if route == ROUTE_FO:
            return plan_from_term(query, signature)
        term_rank(query, signature)
        program: q.Program = q.Assign("Y1", query)
        if route == ROUTE_QLHS:
            return Fixpoint(program, "Y1")
        if route == ROUTE_QLF and not q.term_uses_intrinsics(query):
            return FcfFixpoint(program)
        return None
    if isinstance(query, q.Program):
        if route == ROUTE_QLHS:
            return Fixpoint(query, "Y1")
        if route == ROUTE_QLF and not q.program_uses_intrinsics(query):
            return FcfFixpoint(query)
        return None
    raise TypeSignatureError(
        f"lower_all cannot lower {type(query).__name__} queries")


def lower_all(query, signature: Sequence[int], *,
              variables: Sequence[Var] = (),
              include_gmhs: bool = False,
              include_qlf: bool = False,
              routes: Sequence[str] | None = None) -> dict[str, Plan]:
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

    * ``"fo"`` — the structural algebra plan (pure plan-IR execution;
      a formula lowers directly, by :func:`plan_from_formula`);
    * ``"qlhs"`` — a :class:`~repro.engine.plan.Fixpoint` plan whose
      payload is a one-assignment program, executed by the QLhs
      *interpreter* (a genuinely different execution path; a formula
      runs as the paper's macro term, :func:`~repro.qlhs.from_logic.
      compile_formula`);
    * ``"gmhs"`` (``include_gmhs=True``, formulas only) — a
      :class:`~repro.engine.plan.MachineFixpoint` plan wrapping
      :func:`procedure_from_formula` (the Theorem 5.1 pipeline);
    * ``"qlf"`` (``include_qlf=True``, intrinsic-free terms/programs
      only) — an :class:`~repro.engine.plan.FcfFixpoint` plan for an
      Engine over the corresponding
      :class:`~repro.fcf.database.FcfDatabase`.

    ``routes`` names the routes to lower instead of the two flags'
    choice (the serving catalog lowers only the route a request is
    served on); routes that cannot express the query are left out
    either way.  Every route checks the query as the ``fo`` route does
    — a formula against ``variables`` and the signature, a term's ranks
    against the signature — so lowering one route rejects exactly the
    queries that lowering them all rejects.

    Plans in :data:`HS_ROUTES` execute on an Engine over an
    :class:`~repro.symmetric.hsdb.HSDatabase`; plans in
    :data:`FCF_ROUTES` need an Engine over the fcf view of the *same*
    database (Proposition 4.1's bridge).
    """
    if routes is None:
        routes = ((ROUTE_FO, ROUTE_QLHS)
                  + ((ROUTE_GMHS,) if include_gmhs else ())
                  + ((ROUTE_QLF,) if include_qlf else ()))
    plans: dict[str, Plan] = {}
    for route in routes:
        plan = _lower_route(query, route, signature, variables)
        if plan is not None:
            plans[route] = plan
    return plans
