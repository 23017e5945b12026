"""The direct FO lowering: bounded width, the Theorem 6.3 semantics.

``plan_from_formula`` maps a formula with ``k`` variables in scope to a
rank-``k`` plan, one node per formula node.  Checked here:

* no node is wider than the number of variables in scope;
* the interpreted value equals the Theorem 6.3 evaluator's
  (``relation_from_formula`` / ``holds_sentence``), on generated
  formulas over the four builtin hs databases and on hand-picked corner
  cases (shadowing, constants, empty connectives, variable order);
* within the fuzzer's bounds, it equals the macro lowering's value;
* the sentence whose macro plan needs a rank-5 join answers on the
  ``fo`` route with rank-3 plans, in-process and served.
"""

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from repro.check.generators import BUILTIN_HSDBS, builtin_hsdb, gen_formula
from repro.core import finite_database
from repro.engine import (
    Empty,
    Engine,
    FullScan,
    lower_all,
    plan_from_formula,
    plan_from_formula_macro,
    plan_rank,
)
from repro.engine.optimize import iter_subplans
from repro.errors import ArityError, TypeSignatureError
from repro.logic import holds_sentence, parse, relation_from_formula
from repro.logic import syntax as fo
from repro.serve import ServeClient, start_in_thread
from repro.symmetric.constructions import from_finite_database

DATABASES = {name: builtin_hsdb(name) for name in BUILTIN_HSDBS}
INTERPRETED = {name: Engine(db, optimize=False, compiled=False)
               for name, db in DATABASES.items()}
DEFAULT = {name: Engine(db) for name, db in DATABASES.items()}

#: The sentence whose macro plan joins ``T³`` with ``R1``: a rank-5
#: node, past 1 GB on rado.
DEEP = "forall x1. exists x2. forall x3. R1(x3, x1)"


def widest(plan, signature) -> int:
    """The largest rank of any node of ``plan``."""
    return max(plan_rank(node, signature) for node in iter_subplans(plan))


def scope_width(formula, k: int) -> int:
    """The most variables in scope at any node of ``formula``, when
    ``k`` are in scope at its root."""
    if isinstance(formula, (fo.Exists, fo.Forall)):
        return scope_width(formula.body, k + 1)
    if isinstance(formula, fo.Not):
        return scope_width(formula.body, k)
    if isinstance(formula, (fo.And, fo.Or)):
        return max([scope_width(c, k) for c in formula.children],
                   default=k)
    if isinstance(formula, fo.Implies):
        return max(scope_width(formula.left, k),
                   scope_width(formula.right, k))
    return k


def evaluator_value(db, formula, variables):
    """The Theorem 6.3 evaluator's answer: a truth value for a
    sentence, the set of representatives otherwise."""
    if not variables:
        return holds_sentence(db, formula)
    return relation_from_formula(db, formula, list(variables))


def engine_value(engine, plan, variables):
    """An engine's answer, in :func:`evaluator_value`'s form."""
    verdict = engine.eval(plan)
    assert verdict.known, verdict
    if not variables:
        return verdict.status == "true"
    return frozenset(verdict.value.paths)


def generated(seed: int, db: str, free: int, depth: int, quantifiers: int):
    """``(formula, variables)``: a generated formula whose free
    variables are among the first ``free`` of ``x1, x2``."""
    variables = tuple(fo.Var(f"x{i + 1}") for i in range(free))
    formula = gen_formula(random.Random(seed), DATABASES[db].signature,
                          variables, depth=depth, quantifiers=quantifiers)
    return formula, variables


@settings(max_examples=150)
@given(seed=st.integers(0, 2**32 - 1), db=st.sampled_from(BUILTIN_HSDBS),
       free=st.integers(0, 2))
def test_width_and_value_match_the_evaluator(seed, db, free):
    formula, variables = generated(seed, db, free, depth=3, quantifiers=2)
    signature = DATABASES[db].signature
    plan = plan_from_formula(formula, variables, signature)
    assert plan_rank(plan, signature) == len(variables)
    assert widest(plan, signature) <= scope_width(formula, len(variables))
    assert (engine_value(INTERPRETED[db], plan, variables)
            == evaluator_value(DATABASES[db], formula, variables))


@settings(max_examples=25)
@given(seed=st.integers(0, 2**32 - 1), db=st.sampled_from(BUILTIN_HSDBS),
       open_formula=st.booleans())
def test_value_matches_the_macro_lowering(seed, db, open_formula):
    """Within ``gen_case``'s bounds only: sentences of depth 4 with 3
    quantifiers (2 on rado), and one free variable off rado.  Macro
    plans outside them can outgrow memory."""
    if open_formula and db == "rado":
        db = "clique"
    if open_formula:
        formula, variables = generated(seed, db, 1, depth=3, quantifiers=2)
    else:
        formula, variables = generated(
            seed, db, 0, depth=4, quantifiers=2 if db == "rado" else 3)
    signature = DATABASES[db].signature
    direct = plan_from_formula(formula, variables, signature)
    macro = plan_from_formula_macro(formula, variables, signature)
    assert (engine_value(INTERPRETED[db], direct, variables)
            == engine_value(DEFAULT[db], macro, variables))


CORNER_CASES = [
    # Shadowing: the inner x rebinds to a new coordinate.
    ("forall x. exists x. R1(x, x)", ()),
    ("exists x. (R1(x, x) or forall x. exists y. R1(x, y))", ()),
    ("exists y. (R1(x, y) and exists x. R1(y, x))", ("x",)),
    ("exists x. x = y", ("y",)),
    # Constants, at rank 0 and above.
    ("true", ()),
    ("false", ()),
    ("true", ("x", "y")),
    ("false", ("x",)),
    ("R1(x, y) -> false", ("x", "y")),
    # Equality and an unused variable in scope.
    ("x = y", ("x", "y")),
    ("R1(x, x)", ("x", "y")),
]


@pytest.mark.parametrize("db", BUILTIN_HSDBS)
@pytest.mark.parametrize("text,names", CORNER_CASES)
def test_corner_cases_match_the_evaluator(db, text, names):
    formula = parse(text)
    variables = [fo.Var(n) for n in names]
    plan = plan_from_formula(formula, variables, DATABASES[db].signature)
    assert (engine_value(INTERPRETED[db], plan, variables)
            == evaluator_value(DATABASES[db], formula, variables))


@pytest.mark.parametrize("k", [0, 1, 2])
def test_empty_connectives_are_the_constants(k):
    variables = [fo.Var(f"x{i}") for i in range(k)]
    assert plan_from_formula(fo.And(()), variables, (2,)) == FullScan(k)
    assert plan_from_formula(fo.Or(()), variables, (2,)) == Empty(k)
    db = DATABASES["k3k2"]
    for formula in (fo.And(()), fo.Or(())):
        plan = plan_from_formula(formula, variables, db.signature)
        assert (engine_value(INTERPRETED["k3k2"], plan, variables)
                == evaluator_value(db, formula, variables))


def test_free_variable_order_fixes_coordinates():
    """On a directed path the two orders of ``R1(x, y)`` differ, and
    each lowers to its own order's relation."""
    path = from_finite_database(
        finite_database([(2, [(0, 1), (1, 2)])], [0, 1, 2], name="path"),
        name="path")
    engine = Engine(path, optimize=False, compiled=False)
    formula = parse("R1(x, y) and not R1(y, x)")
    x, y = fo.Var("x"), fo.Var("y")
    values = []
    for order in ([x, y], [y, x]):
        plan = plan_from_formula(formula, order, path.signature)
        value = engine_value(engine, plan, order)
        assert value == relation_from_formula(path, formula, order)
        values.append(value)
    assert values[0] != values[1]


def test_checks_match_the_macro_lowering():
    """Both lowerings reject the same formulas with the same errors."""
    cases = [("exists x. R1(x)", [], ArityError),
             ("exists x. R2(x, x)", [], TypeSignatureError),
             ("R1(x, y)", ["x"], TypeSignatureError),
             ("R1(x, x)", ["x", "x"], ValueError)]
    for text, names, error in cases:
        variables = [fo.Var(n) for n in names]
        for lower in (plan_from_formula, plan_from_formula_macro):
            with pytest.raises(error):
                lower(parse(text), variables, (2,))


def test_deep_sentence_stays_rank_three():
    """The ``fo`` route of :data:`DEEP` is rank 3 at its widest, and it
    answers FALSE in-process and served (``ServeClient`` raises on any
    status but 200).  The width is asserted before anything runs, so a
    rank-5 plan fails fast instead of allocating."""
    db = DATABASES["rado"]
    plan = lower_all(parse(DEEP), db.signature)["fo"]
    assert widest(plan, db.signature) <= 3
    for engine in (Engine(builtin_hsdb("rado")),
                   Engine(builtin_hsdb("rado"), optimize=False,
                          compiled=False)):
        assert engine.eval(plan).status == "false"
    with start_in_thread(port=0) as server:
        body = ServeClient(server.base_url).eval("rado", DEEP)
    assert body["status"] == "false"
