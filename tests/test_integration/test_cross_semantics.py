"""Integration tests: the library's multiple semantics agree.

These are the reproduction's load-bearing checks — each test pins two
independently implemented routes to the same mathematical object against
each other:

* QLhs over the finite CB representation ≡ QL over finite unfoldings;
* the Theorem 2.1 compiler ≡ direct class-membership queries;
* the Theorem 6.3 evaluator ≡ the P_Q pipeline ≡ GMhs exploration;
* QLf+ over indicators ≡ direct fcf membership;
* oracle ≅_B ≡ refinement ≡ EF games (spot-checked here end to end).
"""

import pytest

from repro.core import (
    database_from_predicates,
    query_from_pointed_examples,
)
from repro.fcf import FcfDatabase, QLfInterpreter, cofinite_value, finite_value
from repro.finite import QLInterpreter, unfold_hsdb
from repro.graphs import mixed_components_hsdb, triangles_hsdb
from repro.logic import (
    Var,
    expression_for_query,
    parse,
    relation_from_formula,
)
from repro.machines.gmhs import children_explorer
from repro.qlhs import PQPipeline, QLhsInterpreter, parse_program, parse_term
from repro.symmetric import cross_check_equivalence, infinite_clique


class TestQLhsVsQLOnUnfoldings:
    """The same program, two semantics: class representatives over CB
    versus explicit tuples over a finite unfolding.  Denotations must
    agree: a tuple of the unfolding satisfies the QLhs answer iff it is
    in the QL answer."""

    PROGRAMS = [
        "Y1 := R1",
        "Y1 := !R1",
        "Y1 := R1 & swap(R1)",
        "Y1 := down(R1)",
        "Y1 := !(down(R1))",
        "Y1 := !( !R1 & !(E) )",   # union of R1 and E via De Morgan
    ]

    @pytest.mark.parametrize("text", PROGRAMS)
    def test_agreement_on_window(self, text):
        cu = mixed_components_hsdb()
        program = parse_program(text)

        hs_value = QLhsInterpreter(cu, budget=10_000_000).run(program)

        # The window must cover *whole* components: an unfolding that
        # cuts a component leaves its nodes with truncated
        # neighbourhoods and projection queries genuinely disagree —
        # that is the pointwise-only convergence of unfoldings, and the
        # E6 benchmark's story.  10 elements = two full copies of each
        # kind.
        window = 10
        unfolded = unfold_hsdb(cu, window)
        ql_value = QLInterpreter(unfolded, budget=10_000_000).run(program)

        elements = unfolded.domain.first(window)
        from itertools import product
        for u in product(elements, repeat=hs_value.rank):
            via_hs = any(cu.equivalent(u, p) for p in hs_value.paths)
            via_ql = u in ql_value.tuples
            assert via_hs == via_ql, f"{text} disagrees on {u!r}"


class TestTheorem21EndToEnd:
    def test_compiled_formula_equals_query_on_infinite_db(self):
        B = database_from_predicates(
            [(2, lambda x, y: (x - y) % 5 == 1)], name="shift5")
        Q = query_from_pointed_examples(
            [B.point((3, 2)), B.point((4, 4))], name="Q")
        expr = expression_for_query(Q)
        for u in [(3, 2), (2, 3), (7, 7), (9, 8), (0, 4), (1, 0)]:
            assert expr.holds(B, u) == Q.holds(B, u)


class TestThreeRoutesToOneRelation:
    def test_fo_pq_and_direct_agree(self):
        """'x lies on an edge' computed by: (1) FO formula with the
        relativized evaluator, (2) the P_Q pipeline, (3) direct
        canonicalization of R1's projections."""
        cu = mixed_components_hsdb()

        # Route 1: FO.
        formula = parse("exists y. R1(x, y)")
        via_fo = relation_from_formula(cu, formula, [Var("x")])

        # Route 2: P_Q.
        def machine(oracle):
            out = set()
            for x in range(oracle.size):
                for y in oracle.children((x,)):
                    if oracle.atom(0, (x, y)):
                        out.add((x,))
            return out

        via_pq = PQPipeline(cu).execute(machine).paths

        # Route 3: direct.
        via_direct = {cu.canonical_representative((p[1],))
                      for p in cu.representatives[0]}

        assert via_fo == via_pq == frozenset(via_direct)

    def test_gmhs_levels_equal_tree_levels(self):
        tri = triangles_hsdb()
        store, __ = children_explorer(tri, 2).run_on_cb()
        assert store["LEVEL"] == frozenset(tri.tree.level(2))


class TestQLfVsDirect:
    def test_program_answer_matches_membership(self):
        B = FcfDatabase([finite_value(2, [(1, 2), (2, 1)]),
                         cofinite_value(1, [(3,)])], name="B")
        it = QLfInterpreter(B)
        # "nodes mentioned by R1, minus the R2-complement"
        answer = it.execute(parse_program(
            "Y1 := down(R1) & R2"))["Y1"]
        for t in [(1,), (2,), (3,), (9,)]:
            expected = (t[0] in (1, 2)) and t != (3,)
            assert answer.contains(t) == expected


class TestEquivalenceTriangle:
    def test_all_faces_agree_on_clique(self):
        hs = infinite_clique()
        cross_check_equivalence(hs, [
            ((3, 7), (9, 2)),
            ((3, 3), (9, 2)),
            ((1, 2, 1), (5, 6, 5)),
        ])

    def test_all_faces_agree_on_components(self):
        cu = mixed_components_hsdb()
        cross_check_equivalence(cu, [
            (((0, 0, 0), (0, 0, 1)), ((0, 7, 2), (0, 7, 0))),
            (((0, 0, 0), (0, 1, 1)), ((0, 5, 2), (0, 6, 0))),
            (((1, 0, 0),), ((0, 0, 0),)),
        ])
