"""Tests for counter-machine compilation and the P_Q pipeline (Thm 3.1)."""

import pytest

from repro.core import finite_database
from repro.errors import NotHighlySymmetricError
from repro.machines.counter import (
    addition_machine,
    comparison_machine,
    multiplication_machine,
)
from repro.qlhs import (
    ModelOracle,
    PQPipeline,
    QLhsInterpreter,
    compute_v_n,
    compute_v_n_0,
    compute_v_n_r,
    encode_n_model,
    find_d_qlhs,
    project_blocks,
    run_compiled,
)
from repro.symmetric import INFINITE, component_union, infinite_clique, rado_hsdb


def k3_k2():
    tri = finite_database(
        [(2, [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)])],
        [0, 1, 2], name="K3")
    edge = finite_database([(2, [(0, 1), (1, 0)])], [0, 1], name="K2")
    return component_union([(tri, INFINITE), (edge, INFINITE)], name="K3+K2")


def fresh_interp(hsdb=None, budget=100_000_000):
    return QLhsInterpreter(hsdb or infinite_clique(), budget=budget)


class TestCounterCompilation:
    """Theorem 3.1's Turing-power step: counter machines run inside QLhs."""

    @pytest.mark.parametrize("a,b", [(0, 0), (3, 4), (5, 0), (0, 7)])
    def test_addition(self, a, b):
        native = addition_machine().run([a, b])
        compiled = run_compiled(addition_machine(), [a, b], fresh_interp())
        assert compiled == native
        assert compiled[0] == a + b

    @pytest.mark.parametrize("a,b", [(2, 3), (0, 4), (3, 0), (4, 4)])
    def test_multiplication(self, a, b):
        compiled = run_compiled(multiplication_machine(), [a, b],
                                fresh_interp())
        assert compiled[0] == a * b

    @pytest.mark.parametrize("a,b,expected", [(3, 3, 1), (3, 5, 0), (0, 0, 1)])
    def test_comparison(self, a, b, expected):
        compiled = run_compiled(comparison_machine(), [a, b], fresh_interp())
        assert compiled[2] == expected

    def test_runs_on_other_hs_dbs(self):
        """The compilation is database-independent: the same program
        computes the same numbers over K3+K2."""
        compiled = run_compiled(addition_machine(), [2, 3],
                                fresh_interp(k3_k2()))
        assert compiled[0] == 5

    def test_compiled_program_is_core(self):
        from repro.qlhs import compile_counter_machine, program_uses_intrinsics
        program = compile_counter_machine(addition_machine())
        # Increment uses the SelectEq intrinsic ([CH]-definable); all
        # control flow is core while/flag machinery.
        from repro.qlhs.ast import WhileEmpty
        assert isinstance(program.body[-1], WhileEmpty)


class TestVnComputations:
    """The paper's V^n_r machinery via QLhs term operations."""

    def test_v10_matches_refinement_module(self):
        cu = k3_k2()
        it = fresh_interp(cu)
        from repro.symmetric import base_partition
        blocks = compute_v_n_0(it, 1)
        expected = base_partition(cu, 1)
        got = {frozenset(b.paths) for b in blocks}
        want = {frozenset(blk) for blk in expected.blocks()}
        assert got == want

    def test_v20_matches_refinement_module(self):
        cu = k3_k2()
        it = fresh_interp(cu)
        from repro.symmetric import base_partition
        blocks = compute_v_n_0(it, 2)
        got = {frozenset(b.paths) for b in blocks}
        want = {frozenset(blk) for blk in base_partition(cu, 2).blocks()}
        assert got == want

    def test_proposition_37_via_terms(self):
        """V^{n+1}_r↓ = V^n_{r+1}, computed with QLhs operations."""
        cu = k3_k2()
        it = fresh_interp(cu)
        from repro.symmetric import partition_nr
        upper = compute_v_n_r(it, 2, 0)
        projected = project_blocks(it, upper, 1)
        got = {frozenset(b.paths) for b in projected}
        want = {frozenset(blk)
                for blk in partition_nr(cu, 1, 1).blocks()}
        assert got == want

    def test_v_n_reaches_singletons(self):
        cu = k3_k2()
        blocks, r = compute_v_n(fresh_interp(cu), 1)
        assert all(b.is_singleton for b in blocks)
        assert r == 2
        assert len(blocks) == cu.class_count(1)

    def test_clique_immediate(self):
        blocks, r = compute_v_n(fresh_interp(), 2)
        assert r == 0
        assert len(blocks) == 2


class TestFindD:
    def test_clique(self):
        assert find_d_qlhs(fresh_interp()) == (0, 1)

    def test_k3_k2_covers_representatives(self):
        cu = k3_k2()
        d = find_d_qlhs(fresh_interp(cu))
        assert len(set(d)) == len(d)
        model = encode_n_model(cu, d)
        # The model must contain both edge shapes.
        assert len(model[0]) >= 4  # two symmetric edges

    def test_rado(self):
        r = rado_hsdb()
        d = find_d_qlhs(fresh_interp(r))
        assert len(d) == 2  # an adjacent pair encodes the single edge class


class TestModelOracle:
    def test_atoms_and_equiv(self):
        cu = k3_k2()
        d = find_d_qlhs(fresh_interp(cu))
        oracle = ModelOracle(cu, d)
        assert oracle.size == len(d)
        model = oracle.relations()
        assert model == encode_n_model(cu, d)
        assert oracle.equiv((0,), (0,))

    def test_children_extend_d(self):
        cu = k3_k2()
        d = find_d_qlhs(fresh_interp(cu))
        oracle = ModelOracle(cu, d)
        before = oracle.size
        kids = oracle.children((0,))
        assert len(kids) == len(
            cu.tree.children(cu.canonical_representative((oracle.elements[0],))))
        assert oracle.size >= before  # may have grown

    def test_children_realize_classes(self):
        cu = k3_k2()
        oracle = ModelOracle(cu, find_d_qlhs(fresh_interp(cu)))
        base = (0,)
        rep = cu.canonical_representative((oracle.elements[0],))
        for a, pos in zip(cu.tree.children(rep), oracle.children(base)):
            got = (oracle.elements[0], oracle.elements[pos])
            assert cu.equivalent(got, rep + (a,))


class TestPQPipeline:
    def test_in_triangle_query(self):
        cu = k3_k2()

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

        result = PQPipeline(cu).execute(in_triangle)
        assert result.paths == frozenset(
            {cu.canonical_representative(((0, 0, 0),))})

    def test_agreement_with_fo_evaluator(self):
        """The PQ answer equals the Theorem 6.3 evaluator's answer for
        the same query — two completeness routes, one relation."""
        from repro.logic import Var, parse, relation_from_formula
        cu = k3_k2()
        formula = parse(
            "exists y. exists z. (R1(x, y) and R1(y, z) and R1(z, x) "
            "and x != y and y != z and x != z)")
        via_fo = relation_from_formula(cu, formula, [Var("x")])

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

        via_pq = PQPipeline(cu).execute(in_triangle)
        assert via_pq.paths == via_fo

    def test_empty_answer(self):
        cu = k3_k2()
        result = PQPipeline(cu).execute(lambda oracle: set())
        assert result.is_empty

    def test_identity_query(self):
        """Q(B) = R1 through the pipeline."""
        cu = k3_k2()

        def edges(oracle):
            model = oracle.relations()
            return set(model[0])

        result = PQPipeline(cu).execute(edges)
        assert result.paths == cu.representatives[0]

    def test_mixed_rank_output_rejected(self):
        cu = k3_k2()
        with pytest.raises(NotHighlySymmetricError):
            PQPipeline(cu).execute(lambda oracle: {(0,), (0, 1)})
