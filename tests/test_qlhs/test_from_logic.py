"""Tests for the FO → QLhs compiler (calculus ≡ algebra over hs-r-dbs)."""

import pytest

from repro.errors import TypeSignatureError
from repro.graphs import mixed_components_hsdb, triangles_hsdb
from repro.logic import Var, holds_sentence, parse, relation_from_formula
from repro.qlhs import QLhsInterpreter
from repro.qlhs.from_logic import (
    compile_formula,
    evaluate_via_algebra,
    sentence_via_algebra,
)
from repro.symmetric import infinite_clique, rado_hsdb

X, Y = Var("x"), Var("y")

FORMULAS = [
    ("true", ["x"]),
    ("false", ["x"]),
    ("x = y", ["x", "y"]),
    ("x != y", ["x", "y"]),
    ("R1(x, y)", ["x", "y"]),
    ("R1(y, x)", ["x", "y"]),
    ("R1(x, x)", ["x"]),
    ("R1(x, y) and x != y", ["x", "y"]),
    ("R1(x, y) or x = y", ["x", "y"]),
    ("R1(x, y) -> R1(y, x)", ["x", "y"]),
    ("exists y. R1(x, y)", ["x"]),
    ("exists y. (R1(x, y) and x != y)", ["x"]),
    ("forall y. (R1(x, y) -> R1(y, x))", ["x"]),
    ("exists y. exists z. (R1(x, y) and R1(y, z) and R1(z, x) "
     "and x != y and y != z and x != z)", ["x"]),
]

SENTENCES = [
    "forall x. exists y. R1(x, y)",
    "exists x. R1(x, x)",
    "forall x. forall y. (R1(x, y) -> R1(y, x))",
    "exists x. exists y. (x != y and not R1(x, y))",
]


@pytest.fixture(scope="module")
def cu():
    return mixed_components_hsdb()


@pytest.fixture(scope="module")
def it(cu):
    return QLhsInterpreter(cu, budget=10 ** 8)


class TestAgreementWithEvaluator:
    @pytest.mark.parametrize("text,vs", FORMULAS)
    def test_open_formulas(self, cu, it, text, vs):
        f = parse(text)
        order = [Var(v) for v in vs]
        via_algebra = evaluate_via_algebra(it, f, order).paths
        via_calculus = relation_from_formula(cu, f, order)
        assert via_algebra == via_calculus

    @pytest.mark.parametrize("text", SENTENCES)
    def test_sentences(self, cu, it, text):
        sentence = parse(text)
        assert sentence_via_algebra(it, sentence) == \
            holds_sentence(cu, sentence)

    def test_on_other_databases(self):
        for hs in (infinite_clique(), triangles_hsdb(), rado_hsdb()):
            it = QLhsInterpreter(hs, budget=10 ** 8)
            f = parse("exists y. (x != y and R1(x, y))")
            assert evaluate_via_algebra(it, f, [X]).paths == \
                relation_from_formula(hs, f, [X])


class TestCompileValidation:
    def test_duplicate_order_rejected(self):
        with pytest.raises(ValueError):
            compile_formula(parse("R1(x, x)"), [X, X], (2,))

    def test_stray_free_variable_rejected(self):
        with pytest.raises(TypeSignatureError):
            compile_formula(parse("R1(x, y)"), [X], (2,))

    def test_signature_checked(self):
        with pytest.raises(TypeSignatureError):
            compile_formula(parse("R2(x)"), [X], (2,))

    def test_shadowed_quantifier(self, cu, it):
        """A quantifier over an in-scope name rebinds correctly."""
        f = parse("R1(x, x) or exists x. R1(x, x)")
        via_algebra = evaluate_via_algebra(it, f, [X]).paths
        via_calculus = relation_from_formula(cu, f, [X])
        assert via_algebra == via_calculus

    def test_rank_of_result(self, it):
        v = evaluate_via_algebra(it, parse("exists y. R1(x, y)"), [X])
        assert v.rank == 1
        v0 = evaluate_via_algebra(it, parse("exists x. exists y. R1(x, y)"),
                                  [])
        assert v0.rank == 0
