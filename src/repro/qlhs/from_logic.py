"""Compiling first-order formulas into QLhs terms (calculus → algebra).

The classical calculus/algebra equivalence, executable over *infinite*
highly symmetric databases: a formula ``φ(x₁,…,xₙ)`` compiles to a QLhs
term denoting ``{(a₁,…,aₙ) : B ⊨ φ(ā)}`` as class representatives.

* atoms become selections over ``Tⁿ`` (``select_atom`` / ``SelectEq``,
  the [CH]-definable intrinsics);
* boolean connectives become ``∩`` / union / complement;
* ``∃y`` becomes "move y's coordinate to the front, project it out"
  (``Permute`` + ``↓``), and ``∀y`` is its dual through complements.

This closes a triangle the tests exploit: the same relation computed by
(1) the Theorem 6.3 relativized evaluator, (2) the Theorem 3.1 ``P_Q``
pipeline, and (3) a compiled QLhs term must coincide representative for
representative.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..errors import TypeSignatureError
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
from ..logic.transform import free_variables, validate
from .ast import Comp, Down, Inter, Permute, SelectEq, Term
from .derived import full_term, select_atom, union
from .interpreter import QLhsInterpreter, Value


def check_formula(formula: Formula, variables: Sequence[Var],
                  signature: Sequence[int]) -> None:
    """Check ``φ`` against a free-variable order and a database type.

    Raises :class:`ValueError` for a repeated variable in the order,
    :class:`TypeSignatureError` for a free variable outside it or an
    out-of-range relation, and :class:`~repro.errors.ArityError` for an
    atom of the wrong arity.
    """
    variables = list(variables)
    if len(set(variables)) != len(variables):
        raise ValueError("variable order must be duplicate-free")
    extra = free_variables(formula) - set(variables)
    if extra:
        raise TypeSignatureError(
            f"formula has free variables "
            f"{sorted(v.name for v in extra)} outside the given order")
    validate(formula, signature)


def compile_formula(formula: Formula, variables: Sequence[Var],
                    signature: Sequence[int]) -> Term:
    """Compile ``φ`` with the given free-variable order into a term.

    The resulting term has rank ``len(variables)``; coordinate ``i``
    carries ``variables[i]``.
    """
    variables = list(variables)
    check_formula(formula, variables, signature)
    return _compile(formula, variables, tuple(signature))


def _compile(formula: Formula, scope: list[Var],
             signature: tuple[int, ...]) -> Term:
    n = len(scope)
    if isinstance(formula, TrueF):
        return full_term(n)
    if isinstance(formula, FalseF):
        return Comp(full_term(n))
    if isinstance(formula, Eq):
        return SelectEq(full_term(n), scope.index(formula.left),
                        scope.index(formula.right))
    if isinstance(formula, RelAtom):
        positions = [scope.index(a) for a in formula.args]
        return select_atom(full_term(n), n, formula.index,
                           signature[formula.index], positions)
    if isinstance(formula, Not):
        return Comp(_compile(formula.body, scope, signature))
    if isinstance(formula, And):
        parts = [_compile(c, scope, signature) for c in formula.children]
        out = parts[0] if parts else full_term(n)
        for p in parts[1:]:
            out = Inter(out, p)
        return out
    if isinstance(formula, Or):
        parts = [_compile(c, scope, signature) for c in formula.children]
        out = parts[0] if parts else Comp(full_term(n))
        for p in parts[1:]:
            out = union(out, p)
        return out
    if isinstance(formula, Implies):
        return union(Comp(_compile(formula.left, scope, signature)),
                     _compile(formula.right, scope, signature))
    if isinstance(formula, Exists):
        return _compile_exists(formula.var, formula.body, scope, signature)
    if isinstance(formula, Forall):
        # ∀y φ = ¬∃y ¬φ.
        inner = _compile_exists(formula.var, Not(formula.body), scope,
                                signature)
        return Comp(inner)
    raise TypeError(f"unknown formula node {formula!r}")


def _compile_exists(var: Var, body: Formula, scope: list[Var],
                    signature: tuple[int, ...]) -> Term:
    if var in scope:
        # Shadowing: rebind under a fresh name to keep positions unique.
        from ..logic.transform import substitute
        fresh = Var(f"{var.name}~{len(scope)}")
        body = substitute(body, {var: fresh})
        var = fresh
    inner_scope = scope + [var]
    inner = _compile(body, inner_scope, signature)
    # The bound variable occupies the last coordinate: rotate it to the
    # front and project it out.
    n = len(inner_scope)
    rotation = tuple([n - 1] + list(range(n - 1)))
    return Down(Permute(inner, rotation))


def evaluate_via_algebra(interpreter: QLhsInterpreter, formula: Formula,
                         variables: Sequence[Var]) -> Value:
    """Compile and run: the relation ``φ`` defines, as representatives."""
    term = compile_formula(formula, variables, interpreter.hsdb.signature)
    return interpreter.eval_term(term, {})


def sentence_via_algebra(interpreter: QLhsInterpreter,
                         sentence: Formula) -> bool:
    """Decide a sentence by compiling to a rank-0 term: true iff the
    denoted rank-0 relation is ``{()}``."""
    value = evaluate_via_algebra(interpreter, sentence, [])
    return not value.is_empty
