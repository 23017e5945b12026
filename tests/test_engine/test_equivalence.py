"""Acceptance criterion: every frontend, evaluated through the engine,
agrees bit-for-bit with its direct evaluator.

Four routes into ``repro.engine``:

* L⁻/FO sentences and open formulas (Theorem 6.3 evaluator),
* QLhs terms and while-programs (Theorem 3.1 interpreter),
* QLf+ programs over fcf databases (Theorem 4.2 interpreter),
* GMhs query procedures (Theorem 5.1 pipeline).
"""

import pytest

from repro.engine import (
    Engine,
    plan_from_formula,
    plan_from_gmhs,
    plan_from_qlf,
    plan_from_qlhs,
    plan_from_sentence,
)
from repro.fcf import FcfDatabase, QLfInterpreter, cofinite_value, finite_value
from repro.graphs import mixed_components_hsdb, triangles_hsdb
from repro.logic import Var, holds_sentence, parse, relation_from_formula
from repro.machines import run_query_gmhs
from repro.qlhs import QLhsInterpreter
from repro.qlhs.parser import parse_program
from repro.symmetric import infinite_clique, rado_hsdb

DATABASES = {
    "clique": infinite_clique,
    "rado": rado_hsdb,
    "triangles": triangles_hsdb,
    "k3k2": mixed_components_hsdb,
}

SENTENCES = [
    "forall x. exists y. R1(x, y)",
    "exists x. R1(x, x)",
    "forall x. forall y. (R1(x, y) -> R1(y, x))",
    "exists x. exists y. (R1(x, y) and x != y)",
]

FORMULAS = [
    "exists y. R1(x, y)",
    "not R1(x, x)",
    "exists y. (R1(x, y) and x != y)",
]

QLHS_PROGRAMS = [
    "Y1 := R1",
    "Y1 := !R1",
    "Y1 := down(R1)",
    "Y1 := R1 & swap(R1)",
    "Y1 := up(down(R1))",
]


@pytest.mark.parametrize("db_name", sorted(DATABASES))
@pytest.mark.parametrize("text", SENTENCES)
def test_fo_sentences_match_direct_evaluator(db_name, text):
    db = DATABASES[db_name]()
    plan = plan_from_sentence(parse(text), db.signature)
    assert Engine(db).holds(plan) == holds_sentence(db, parse(text))


@pytest.mark.parametrize("db_name", sorted(DATABASES))
@pytest.mark.parametrize("text", FORMULAS)
def test_open_formulas_match_relation_from_formula(db_name, text):
    db = DATABASES[db_name]()
    order = [Var("x")]
    plan = plan_from_formula(parse(text), order, db.signature)
    value = Engine(db).evaluate(plan)
    assert value.paths == relation_from_formula(db, parse(text), order)


@pytest.mark.parametrize("db_name", sorted(DATABASES))
@pytest.mark.parametrize("source", QLHS_PROGRAMS)
def test_qlhs_programs_match_interpreter(db_name, source):
    db = DATABASES[db_name]()
    program = parse_program(source)
    direct = QLhsInterpreter(db, budget=10 ** 7).run(program)
    via_engine = Engine(db).evaluate(plan_from_qlhs(program))
    assert via_engine == direct


@pytest.mark.parametrize("source", QLHS_PROGRAMS)
def test_qlhs_terms_lower_structurally(source):
    """The loop-free body also lowers to an algebraic plan (no Fixpoint
    node) and still agrees with the interpreter."""
    db = mixed_components_hsdb()
    program = parse_program(source)
    term = program.term  # single assignment: Assign(var, term)
    plan = plan_from_qlhs(term, signature=db.signature)
    assert type(plan).__name__ != "Fixpoint"
    direct = QLhsInterpreter(db, budget=10 ** 7).run(program)
    assert Engine(db).evaluate(plan) == direct


def _bridge_fcf():
    return FcfDatabase(
        [finite_value(2, [(1, 2), (2, 1), (2, 3)]),
         cofinite_value(1, [(3,)])],
        name="bridge")


@pytest.mark.parametrize("source", [
    "Y1 := R1",
    "Y1 := !R2",
    "Y1 := down(R1)",
    "Y1 := R1 & swap(R1)",
])
def test_qlf_programs_match_interpreter(source):
    program = parse_program(source)
    direct = QLfInterpreter(_bridge_fcf(), budget=10 ** 7).result(program)
    via_engine = Engine(_bridge_fcf()).evaluate(plan_from_qlf(program))
    assert via_engine == direct


def _edges(oracle):
    return set(oracle.relations()[0])


def _in_triangle(oracle):
    out = set()
    for x in range(oracle.size):
        for y in oracle.children((x,)):
            if not oracle.atom(0, (x, y)):
                continue
            for z in oracle.children((x, y)):
                if (len({x, y, z}) == 3 and oracle.atom(0, (y, z))
                        and oracle.atom(0, (z, x))):
                    out.add((x,))
    return out


@pytest.mark.parametrize("db_name", ["k3k2", "triangles", "rado"])
@pytest.mark.parametrize("procedure", [_edges, _in_triangle],
                         ids=["edges", "in-triangle"])
def test_gmhs_procedures_match_pipeline(db_name, procedure):
    db = DATABASES[db_name]()
    direct, __ = run_query_gmhs(db, procedure)
    via_engine = Engine(db).evaluate(plan_from_gmhs(procedure))
    assert via_engine == direct


def test_all_four_routes_agree_on_the_triangle_query():
    """The Theorem 6.3 / 3.1 / 5.1 answers coincide when routed through
    one engine over one shared cache."""
    db = mixed_components_hsdb()
    engine = Engine(db)
    formula = parse(
        "exists y. exists z. (R1(x, y) and R1(y, z) and R1(z, x) "
        "and x != y and y != z and x != z)")
    via_fo = engine.evaluate(
        plan_from_formula(formula, [Var("x")], db.signature))
    via_gmhs = engine.evaluate(plan_from_gmhs(_in_triangle))
    assert via_fo.paths == via_gmhs.paths
    assert via_fo.paths == frozenset(
        {db.canonical_representative(((0, 0, 0),))})
