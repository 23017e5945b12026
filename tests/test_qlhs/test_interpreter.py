"""Tests for the QLhs interpreter: core operations over CB."""

import pytest

from repro.core import finite_database
from repro.errors import OutOfFuel, RankMismatchError, TypeSignatureError
from repro.qlhs import (
    Assign,
    QLhsInterpreter,
    Value,
    VarT,
    WhileEmpty,
    WhileSingleton,
    empty_value,
    parse_program,
    parse_term,
    seq,
)
from repro.symmetric import INFINITE, component_union, infinite_clique


def k3_k2():
    tri = finite_database(
        [(2, [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)])],
        [0, 1, 2], name="K3")
    edge = finite_database([(2, [(0, 1), (1, 0)])], [0, 1], name="K2")
    return component_union([(tri, INFINITE), (edge, INFINITE)], name="K3+K2")


@pytest.fixture
def clique_interp():
    return QLhsInterpreter(infinite_clique(), budget=1_000_000)


@pytest.fixture
def cu_interp():
    return QLhsInterpreter(k3_k2(), budget=1_000_000)


class TestValues:
    def test_rank_checked(self):
        with pytest.raises(RankMismatchError):
            Value(1, frozenset({(0, 1)}))

    def test_predicates(self):
        assert empty_value(2).is_empty
        assert Value(1, frozenset({(0,)})).is_singleton
        assert len(Value(1, frozenset({(0,)}))) == 1


class TestTerms:
    def test_E_is_equal_pairs(self, clique_interp):
        v = clique_interp.eval_term(parse_term("E"), {})
        assert v.rank == 2
        assert all(p[0] == p[1] for p in v.paths)
        assert len(v) == 1

    def test_E_on_component_db(self, cu_interp):
        """E has one rep per rank-1 class: (a,a) classes track a's class."""
        v = cu_interp.eval_term(parse_term("E"), {})
        assert len(v) == 2  # K3-node diagonal, K2-node diagonal

    def test_rel(self, cu_interp):
        v = cu_interp.eval_term(parse_term("R1"), {})
        assert v.rank == 2
        assert len(v) == 2  # triangle edge class + K2 edge class

    def test_rel_out_of_range(self, cu_interp):
        with pytest.raises(TypeSignatureError):
            cu_interp.eval_term(parse_term("R2"), {})

    def test_uninitialized_variable_is_empty(self, clique_interp):
        v = clique_interp.eval_term(parse_term("Y9"), {})
        assert v.is_empty and v.rank == 0

    def test_intersection(self, clique_interp):
        v = clique_interp.eval_term(parse_term("R1 & R1"), {})
        assert len(v) == 1

    def test_intersection_rank_mismatch(self, clique_interp):
        with pytest.raises(RankMismatchError):
            clique_interp.eval_term(parse_term("R1 & down(R1)"), {})

    def test_complement(self, clique_interp):
        # T^2 on the clique has 2 classes: equal pair and edge.
        v = clique_interp.eval_term(parse_term("!R1"), {})
        assert len(v) == 1
        assert all(p[0] == p[1] for p in v.paths)

    def test_complement_of_complement(self, cu_interp):
        v1 = cu_interp.eval_term(parse_term("R1"), {})
        v2 = cu_interp.eval_term(parse_term("!(!R1)"), {})
        assert v1 == v2

    def test_up_extends_paths(self, clique_interp):
        v = clique_interp.eval_term(parse_term("up(E)"), {})
        assert v.rank == 3
        # (0,0) extends by 0 (equal) or fresh: 2 children.
        assert len(v) == 2

    def test_down_projects_first(self, cu_interp):
        """R1↓ on K3+K2: projecting the edge classes onto their second
        node gives the two node classes."""
        v = cu_interp.eval_term(parse_term("down(R1)"), {})
        assert v.rank == 1
        assert len(v) == 2

    def test_down_rank_zero_is_empty(self, clique_interp):
        """The documented deviation: ↓ of a rank-0 value is empty —
        the zero test of the counter encoding."""
        v = clique_interp.eval_term(parse_term("down(down(down(E)))"), {})
        assert v.rank == 0 and v.is_empty

    def test_swap(self, cu_interp):
        v1 = cu_interp.eval_term(parse_term("R1"), {})
        v2 = cu_interp.eval_term(parse_term("swap(R1)"), {})
        # Symmetric edges: swapping is the identity on classes.
        assert v1 == v2

    def test_swap_requires_rank_two(self, clique_interp):
        with pytest.raises(RankMismatchError):
            clique_interp.eval_term(parse_term("swap(down(E))"), {})

    def test_swap_on_asymmetric_relation(self):
        arrow = finite_database([(2, [(0, 1)])], [0, 1], name="arrow")
        from repro.symmetric import from_finite_database
        hs = from_finite_database(arrow)
        it = QLhsInterpreter(hs)
        v1 = it.eval_term(parse_term("R1"), {})
        v2 = it.eval_term(parse_term("swap(R1)"), {})
        assert v1 != v2
        # (0,1) is the edge; its swap class contains (1,0) — not an edge.
        (p,) = v2.paths
        assert not hs.contains(0, p)

    def test_product_intrinsic(self, clique_interp):
        v = clique_interp.eval_term(parse_term("prod(down(E), down(E))"), {})
        # D x D has the 2 rank-2 classes of the clique.
        assert v.rank == 2
        assert len(v) == 2


class TestPrograms:
    def test_assignment_and_sequence(self, cu_interp):
        store = cu_interp.execute(parse_program(
            "Y1 := R1 ; Y2 := down(Y1)"))
        assert store["Y1"].rank == 2
        assert store["Y2"].rank == 1

    def test_while_empty_runs_until_nonempty(self, clique_interp):
        program = parse_program(
            "N := down(down(E)) ;"         # {()}: rank-0 non-empty
            "Y := down(N) ;"               # empty rank 0
            "while |Y| = 0 do { Y := N }")
        store = clique_interp.execute(program)
        assert not store["Y"].is_empty

    def test_while_singleton(self, clique_interp):
        program = parse_program(
            "Y := down(down(E)) ;"
            "while |Y| = 1 do { Y := down(Y) }")
        store = clique_interp.execute(program)
        assert store["Y"].is_empty

    def test_result_variable(self, cu_interp):
        v = cu_interp.run(parse_program("Y1 := R1"))
        assert v.rank == 2

    def test_missing_result_defaults_empty(self, cu_interp):
        v = cu_interp.run(parse_program("Y2 := R1"))
        assert v.is_empty

    def test_fuel_exhaustion(self):
        it = QLhsInterpreter(infinite_clique(), budget=200)
        diverging = parse_program(
            "Z := down(down(down(E))) ; while |Z| = 0 do { Y := E }")
        with pytest.raises(OutOfFuel):
            it.execute(diverging)

    def test_value_from_tuples(self, cu_interp):
        v = cu_interp.value_from_tuples([((0, 4, 0), (0, 4, 1)),
                                         ((0, 9, 1), (0, 9, 2))])
        assert v.rank == 2
        assert len(v) == 1  # both are triangle edges

    def test_tuples_of_round_trip(self, cu_interp):
        v = cu_interp.eval_term(parse_term("R1"), {})
        concrete = cu_interp.tuples_of(v, per_class=1, window=12)
        assert len(concrete) == 2
        for u in concrete:
            assert cu_interp.hsdb.contains(0, u)


class TestParser:
    def test_roundtrip_constructs(self):
        p = parse_program(
            "Y1 := up(E) & !R1 ; while |Y2| = 0 do { Y2 := swap(up(E)) }")
        from repro.qlhs.ast import Seq
        assert isinstance(p, Seq)

    def test_comments_and_trailing_semicolons(self):
        parse_program("Y1 := E ;  # trailing comment\n")

    @pytest.mark.parametrize("bad", [
        "", "Y :=", "while Y = 0 do { }", "Y1 := R0",
        "while |Y| = 2 do { Y := E }", "Y := up(E",
        "E := R1", "while := E",
    ])
    def test_parse_errors(self, bad):
        from repro.errors import ParseError
        with pytest.raises(ParseError):
            parse_program(bad)
