"""Golden snapshots of optimized plan shapes.

Each entry pins the *exact* optimized form of a plan (rendered through
a compact one-line notation) so a rule change that alters a shape —
even a semantically-sound one — shows up in review as a diff against
these expectations rather than as silent plan drift.

Notation: ``R0`` scan, ``T2`` full level, ``0_2`` empty, ``eq[i=j]``
coordinate filter, ``atom[R0@p,q]`` atom filter (``!`` = negated),
``pi[coords]`` projection, ``up`` extend, ``ex``/``all`` quantifiers,
``join``/``or``/``and``/``not`` combinators.
"""

import pytest

from repro.engine import (
    Complement,
    Empty,
    FilterAtom,
    FilterEq,
    FullScan,
    Intersect,
    Join,
    Project,
    Quantify,
    Scan,
    Union,
    optimize,
    plan_from_formula_macro,
    plan_size,
)
from repro.engine.plan import Extend
from repro.logic import parse

SIGNATURE = (2,)


def render(plan):
    """Compact one-line rendering of a plan tree (goldens below)."""
    kind = type(plan).__name__
    if kind == "Scan":
        return f"R{plan.index}"
    if kind == "FullScan":
        return f"T{plan.rank}"
    if kind == "Empty":
        return f"0_{plan.rank}"
    if kind == "FilterEq":
        return f"eq[{plan.i}={plan.j}]({render(plan.child)})"
    if kind == "FilterAtom":
        neg = "!" if plan.negate else ""
        pos = ",".join(map(str, plan.positions))
        return f"atom[{neg}R{plan.index}@{pos}]({render(plan.child)})"
    if kind == "Project":
        coords = ",".join(map(str, plan.coords))
        return f"pi[{coords}]({render(plan.child)})"
    if kind == "Extend":
        return f"up({render(plan.child)})"
    if kind == "Quantify":
        word = "ex" if plan.kind == "exists" else "all"
        return f"{word}({render(plan.child)})"
    if kind == "Join":
        return f"join({render(plan.left)}, {render(plan.right)})"
    if kind == "Union":
        return f"or({', '.join(render(c) for c in plan.children)})"
    if kind == "Intersect":
        return f"and({', '.join(render(c) for c in plan.children)})"
    if kind == "Complement":
        return f"not({render(plan.child)})"
    raise AssertionError(f"unrendered node {plan!r}")


#: sentence -> optimized shape.  The shared ``join(ex(ex(eq[0=1](T2))),
#: join(T_k, R0))`` core is the grounded form of the lowered atom: the
#: rank-0 guard checks the database is nonempty once, and the compiled
#: backend streams the ``T_k × R0`` product without building the
#: Extend-tower the macro lowering emits.
SENTENCE_GOLDENS = {
    "forall x. exists y. R1(x, y)":
        "all(ex(ex(ex(eq[1=3](eq[0=2](join(ex(ex(eq[0=1](T2))),"
        " join(T2, R0))))))))",
    "exists x. R1(x, x)":
        "ex(ex(ex(eq[0=2](eq[0=1](join(ex(ex(eq[0=1](T2))),"
        " join(T1, R0)))))))",
    "forall x. forall y. (R1(x, y) -> R1(y, x))":
        "all(all(or(all(all(not(eq[1=3](eq[0=2](join(ex(ex(eq[0=1](T2))),"
        " join(T2, R0))))))), ex(ex(eq[1=2](eq[0=3](join(ex(ex(eq[0=1]"
        "(T2))), join(T2, R0)))))))))",
    "exists x. exists y. (R1(x, y) and x != y)":
        "ex(ex(and(not(eq[0=1](up(up(ex(ex(eq[0=1](T2))))))),"
        " ex(ex(eq[1=3](eq[0=2](join(ex(ex(eq[0=1](T2))),"
        " join(T2, R0)))))))))",
    "forall x. exists y. (R1(x, y) and x != y)":
        "all(ex(and(not(eq[0=1](up(up(ex(ex(eq[0=1](T2))))))),"
        " ex(ex(eq[1=3](eq[0=2](join(ex(ex(eq[0=1](T2))),"
        " join(T2, R0)))))))))",
    "exists x. forall y. R1(x, y)":
        "ex(all(ex(ex(eq[1=3](eq[0=2](join(ex(ex(eq[0=1](T2))),"
        " join(T2, R0))))))))",
    "not (exists x. R1(x, x))":
        "all(all(all(not(eq[0=2](eq[0=1](join(ex(ex(eq[0=1](T2))),"
        " join(T1, R0))))))))",
    "forall x. (R1(x, x) or not R1(x, x))":
        "all(or(all(all(not(eq[0=2](eq[0=1](join(ex(ex(eq[0=1](T2))),"
        " join(T1, R0))))))), ex(ex(eq[0=2](eq[0=1](join(ex(ex(eq[0=1]"
        "(T2))), join(T1, R0))))))))",
}

#: Hand-built plans -> optimized shape, one per folding family.
PLAN_GOLDENS = [
    (Complement(Complement(Scan(0))), "R0"),
    (Intersect((Scan(0), Complement(Scan(0)))), "0_2"),
    (Union((Empty(2), FilterAtom(FullScan(2), 0, (0, 1)), Scan(0))),
     "or(atom[R0@0,1](T2), R0)"),
    (Project(Extend(Scan(0)), (0, 1)), "ex(up(R0))"),
    (Quantify(Union((Scan(0), FilterEq(FullScan(2), 0, 1))), "exists"),
     "or(ex(eq[0=1](T2)), ex(R0))"),
    (Complement(Quantify(Complement(Scan(0)), "forall")), "ex(R0)"),
]


@pytest.mark.parametrize("sentence", sorted(SENTENCE_GOLDENS))
def test_sentence_plan_shape_pinned(sentence):
    plan = plan_from_formula_macro(parse(sentence), [], SIGNATURE)
    assert render(optimize(plan, SIGNATURE)) == SENTENCE_GOLDENS[sentence]


@pytest.mark.parametrize(
    "plan,expected", PLAN_GOLDENS,
    ids=[render(p) for p, __ in PLAN_GOLDENS])
def test_folding_shape_pinned(plan, expected):
    assert render(optimize(plan, SIGNATURE)) == expected


@pytest.mark.parametrize("sentence", sorted(SENTENCE_GOLDENS))
def test_optimized_never_larger(sentence):
    plan = plan_from_formula_macro(parse(sentence), [], SIGNATURE)
    assert plan_size(optimize(plan, SIGNATURE)) <= plan_size(plan)
