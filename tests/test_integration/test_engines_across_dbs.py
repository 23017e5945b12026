"""The query engines exercised across the whole database zoo.

Every hs-r-db construction in the library (clique, blow-ups, component
unions, stretchings, the Rado graph, general random structures) must
work under every engine (QLhs interpreter, P_Q pipeline, relativized FO
evaluation, the FO → QLhs compiler) — these tests sweep the matrix.
"""

import pytest

from repro.core import finite_database
from repro.graphs import mixed_components_hsdb, triangles_hsdb
from repro.logic import Var, holds_sentence, parse, relation_from_formula
from repro.qlhs import PQPipeline, QLhsInterpreter, parse_program
from repro.qlhs.from_logic import evaluate_via_algebra
from repro.symmetric import (
    RandomStructure,
    from_finite_database,
    infinite_clique,
    rado_hsdb,
    stretch_hsdb,
)

X = Var("x")

HAS_NEIGHBOUR = parse("exists y. (x != y and R1(x, y))")


def database_zoo():
    arrow = finite_database([(2, [(0, 1)])], [0, 1], name="arrow")
    return [
        infinite_clique(),
        rado_hsdb(),
        triangles_hsdb(),
        mixed_components_hsdb(),
        from_finite_database(arrow),
        RandomStructure((2,), name="dirrand").hsdb(),
        stretch_hsdb(infinite_clique(), [0]),
    ]


@pytest.mark.parametrize("hsdb", database_zoo(),
                         ids=lambda hs: hs.name)
class TestEveryEngineOnEveryDatabase:
    def test_qlhs_core_program(self, hsdb):
        it = QLhsInterpreter(hsdb, budget=10 ** 8)
        value = it.run(parse_program("Y1 := down(R1)"))
        assert value.rank == 1
        # Every representative really projects from an R1 member.
        for p in value.paths:
            assert any(hsdb.equivalent((q[1],), p)
                       for q in hsdb.representatives[0])

    def test_fo_evaluator_vs_algebra(self, hsdb):
        if hsdb.name == "dirrand":
            pytest.skip(
                "the digit-encoded random structure's witness labels grow "
                "doubly exponentially with depth; the algebra route's "
                "select_atom materializes T^{n+2}, which is infeasible "
                "there (the lazy FO evaluator still works — see "
                "test_sentences_decided)")
        it = QLhsInterpreter(hsdb, budget=10 ** 8)
        via_fo = relation_from_formula(hsdb, HAS_NEIGHBOUR, [X])
        via_algebra = evaluate_via_algebra(it, HAS_NEIGHBOUR, [X]).paths
        assert via_fo == via_algebra

    def test_pq_pipeline_identity(self, hsdb):
        if hsdb.name == "dirrand":
            pytest.skip(
                "P_Q's d-search walks deep tree levels, infeasible on the "
                "digit-encoded random structure (see note above)")
        if not hsdb.representatives[0]:
            pytest.skip("empty R1: nothing for the identity query")

        def first_relation(oracle):
            return set(oracle.relations()[0])

        value = PQPipeline(hsdb, budget=10 ** 8).execute(first_relation)
        assert value.paths == hsdb.representatives[0]

    def test_sentences_decided(self, hsdb):
        # These must return a boolean without touching infinity.
        for text in ["exists x. exists y. R1(x, y)",
                     "forall x. R1(x, x)"]:
            assert holds_sentence(hsdb, parse(text)) in (True, False)

    def test_representation_validates(self, hsdb):
        hsdb.validate(max_rank=1)
