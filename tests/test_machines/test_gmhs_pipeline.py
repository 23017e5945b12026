"""Tests for the Theorem 5.1 GMhs query pipeline."""

import pytest

from repro.errors import MachineError
from repro.graphs import mixed_components_hsdb, triangles_hsdb
from repro.machines.gmhs_pipeline import run_query_gmhs
from repro.symmetric import rado_hsdb


def in_triangle(oracle):
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


def edges(oracle):
    return set(oracle.relations()[0])


class TestGMhsPipeline:
    def test_identity_query(self):
        cu = mixed_components_hsdb()
        value, __ = run_query_gmhs(cu, edges)
        assert value.paths == cu.representatives[0]

    def test_triangle_query(self):
        cu = mixed_components_hsdb()
        value, __ = run_query_gmhs(cu, in_triangle)
        assert value.paths == frozenset(
            {cu.canonical_representative(((0, 0, 0),))})

    def test_loading_metrics_recorded(self):
        cu = mixed_components_hsdb()
        __, metrics = run_query_gmhs(cu, edges)
        assert metrics.spawns > 0
        assert metrics.collapses > 0

    def test_empty_answer(self):
        cu = mixed_components_hsdb()
        value, __ = run_query_gmhs(cu, lambda oracle: set())
        assert value.is_empty

    def test_mixed_rank_rejected(self):
        cu = mixed_components_hsdb()
        with pytest.raises(MachineError):
            run_query_gmhs(cu, lambda oracle: {(0,), (0, 1)})

    def test_on_rado(self):
        r = rado_hsdb()
        value, __ = run_query_gmhs(r, edges)
        assert value.paths == r.representatives[0]

    def test_agreement_with_other_engines(self):
        """Four completeness routes, one relation: GMhs (Thm 5.1), P_Q
        (Thm 3.1), the relativized FO evaluator (Thm 6.3), and the FO →
        QLhs compiler all compute the same answer."""
        from repro.logic import Var, parse, relation_from_formula
        from repro.qlhs import PQPipeline, QLhsInterpreter
        from repro.qlhs.from_logic import evaluate_via_algebra

        cu = mixed_components_hsdb()
        via_gmhs, __ = run_query_gmhs(cu, in_triangle)
        via_pq = PQPipeline(cu).execute(in_triangle)
        formula = parse(
            "exists y. exists z. (R1(x, y) and R1(y, z) and R1(z, x) "
            "and x != y and y != z and x != z)")
        via_fo = relation_from_formula(cu, formula, [Var("x")])
        via_algebra = evaluate_via_algebra(
            QLhsInterpreter(cu, budget=10 ** 8), formula, [Var("x")]).paths
        assert via_gmhs.paths == via_pq.paths == via_fo == via_algebra

    def test_triangles_only_db(self):
        tri = triangles_hsdb()
        value, __ = run_query_gmhs(tri, in_triangle)
        assert len(value.paths) == 1
