"""Tests for derived QLhs operators and the counters-as-ranks encoding."""

import pytest

from repro.core import finite_database
from repro.errors import RankMismatchError
from repro.qlhs import (
    Assign,
    QLhsInterpreter,
    VarT,
    assign_constant,
    constant_term,
    dec_term,
    decode_number,
    difference,
    false_flag,
    full_term,
    if_empty,
    if_flag,
    if_singleton,
    inc_term,
    parse_term,
    program_uses_intrinsics,
    project_onto,
    run_once,
    select_atom,
    select_equal,
    select_not_equal,
    seq,
    set_flag_if_empty,
    set_flag_if_singleton,
    term_uses_intrinsics,
    true_flag,
    union,
    zero_term,
    zero_test,
)
from repro.symmetric import INFINITE, component_union, infinite_clique


def k3_k2():
    tri = finite_database(
        [(2, [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)])],
        [0, 1, 2], name="K3")
    edge = finite_database([(2, [(0, 1), (1, 0)])], [0, 1], name="K2")
    return component_union([(tri, INFINITE), (edge, INFINITE)], name="K3+K2")


@pytest.fixture
def it():
    return QLhsInterpreter(infinite_clique(), budget=2_000_000)


@pytest.fixture
def cu_it():
    return QLhsInterpreter(k3_k2(), budget=5_000_000)


class TestTermMacros:
    def test_union_de_morgan(self, cu_it):
        r1 = parse_term("R1")
        e = parse_term("E")
        v = cu_it.eval_term(union(r1, e), {})
        assert v.rank == 2
        # edges (2 classes) + diagonals (2 classes) = 4 of the 8 classes
        assert len(v) == 4

    def test_union_is_core(self):
        assert not term_uses_intrinsics(union(parse_term("R1"),
                                              parse_term("E")))

    def test_difference(self, cu_it):
        full = full_term(2)
        v = cu_it.eval_term(difference(full, parse_term("R1")), {})
        assert len(v) == len(cu_it.hsdb.tree.level(2)) - 2

    def test_flags(self, it):
        t = it.eval_term(true_flag(), {})
        f = it.eval_term(false_flag(), {})
        assert t.rank == 0 and t.is_singleton
        assert f.rank == 0 and f.is_empty

    def test_full_term(self, cu_it):
        for n in range(3):
            v = cu_it.eval_term(full_term(n), {})
            assert v.paths == frozenset(cu_it.hsdb.tree.level(n))

    def test_select_equal(self, cu_it):
        full2 = full_term(2)
        v = cu_it.eval_term(select_equal(full2, 0, 1), {})
        assert all(p[0] == p[1] for p in v.paths)
        assert len(v) == 2

    def test_select_not_equal(self, cu_it):
        full2 = full_term(2)
        v = cu_it.eval_term(select_not_equal(full2, 0, 1), {})
        assert all(p[0] != p[1] for p in v.paths)

    def test_select_atom(self, cu_it):
        """σ_{(x1,x2) ∈ R1}(T²) = the edge classes."""
        full2 = full_term(2)
        v = cu_it.eval_term(select_atom(full2, 2, 0, 2, (0, 1)), {})
        r1 = cu_it.eval_term(parse_term("R1"), {})
        assert v == r1

    def test_select_atom_with_repeated_positions(self, cu_it):
        """σ_{(x1,x1) ∈ R1}(T¹) — self-loops: none in K3+K2."""
        full1 = full_term(1)
        v = cu_it.eval_term(select_atom(full1, 1, 0, 2, (0, 0)), {})
        assert v.is_empty

    def test_project_onto(self, cu_it):
        r1 = parse_term("R1")
        v = cu_it.eval_term(project_onto(r1, 2, [1]), {})
        assert v.rank == 1
        assert len(v) == 2  # both node classes have incident edges

    def test_project_onto_requires_distinct(self):
        with pytest.raises(ValueError):
            project_onto(parse_term("R1"), 2, [0, 0])


class TestProgramMacros:
    def test_set_flag_if_empty(self, it):
        prog = seq(
            Assign("Y", it_empty_term()),
            set_flag_if_empty("Y", "F", "t"),
        )
        store = it.execute(prog)
        assert store["F"].is_singleton
        prog2 = seq(
            Assign("Y", true_flag()),
            set_flag_if_empty("Y", "F", "t"),
        )
        assert it.execute(prog2)["F"].is_empty

    def test_set_flag_if_singleton(self, it):
        store = it.execute(seq(Assign("Y", true_flag()),
                               set_flag_if_singleton("Y", "F", "t")))
        assert store["F"].is_singleton
        store = it.execute(seq(Assign("Y", false_flag()),
                               set_flag_if_singleton("Y", "F", "t")))
        assert store["F"].is_empty

    def test_if_flag_then_branch(self, it):
        prog = seq(
            Assign("F", true_flag()),
            if_flag("F", Assign("OUT", true_flag()),
                    Assign("OUT", false_flag()), "t"),
        )
        assert it.execute(prog)["OUT"].is_singleton

    def test_if_flag_else_branch(self, it):
        prog = seq(
            Assign("F", false_flag()),
            if_flag("F", Assign("OUT", true_flag()),
                    Assign("OUT", false_flag()), "t"),
        )
        assert it.execute(prog)["OUT"].is_empty

    def test_if_empty_composition(self, it):
        prog = seq(
            Assign("Y", false_flag()),
            if_empty("Y", Assign("OUT", true_flag()),
                     Assign("OUT", false_flag()), "t"),
        )
        assert it.execute(prog)["OUT"].is_singleton

    def test_if_singleton_composition(self, it):
        prog = seq(
            Assign("Y", true_flag()),
            if_singleton("Y", Assign("OUT", true_flag()), None, "t"),
        )
        assert it.execute(prog)["OUT"].is_singleton

    def test_run_once(self, it):
        """The body runs exactly once (an increment observable in rank)."""
        prog = seq(
            assign_constant("N", 0),
            run_once(Assign("N", inc_term(VarT("N"))), "t"),
        )
        store = it.execute(prog)
        assert decode_number(store["N"]) == 1

    def test_macros_are_core(self, it):
        prog = seq(
            Assign("Y", false_flag()),
            if_empty("Y", Assign("OUT", true_flag()), None, "t"),
        )
        assert not program_uses_intrinsics(prog)


def it_empty_term():
    return false_flag()


class TestNumbers:
    def test_constants_decode(self, it):
        for k in range(5):
            v = it.eval_term(constant_term(k), {})
            assert decode_number(v) == k

    def test_constants_stay_small(self, cu_it):
        """The diagonal encoding keeps values bounded by |T¹| — no
        Bell-number blow-up."""
        bound = len(cu_it.hsdb.tree.level(1))
        for k in range(6):
            v = cu_it.eval_term(constant_term(k), {})
            assert len(v) <= bound

    def test_inc_dec_roundtrip(self, it):
        v = it.eval_term(dec_term(inc_term(constant_term(3))), {})
        assert decode_number(v) == 3

    def test_zero_test(self, it):
        store = it.execute(seq(assign_constant("N", 0),
                               zero_test("N", "F", "t")))
        assert store["F"].is_singleton
        store = it.execute(seq(assign_constant("N", 3),
                               zero_test("N", "F", "t")))
        assert store["F"].is_empty

    def test_decode_rejects_empty(self, it):
        from repro.qlhs import empty_value
        with pytest.raises(RankMismatchError):
            decode_number(empty_value(2))

    def test_decode_rejects_rank_zero(self, it):
        v = it.eval_term(true_flag(), {})
        with pytest.raises(RankMismatchError):
            decode_number(v)

    def test_negative_constant_rejected(self):
        with pytest.raises(ValueError):
            constant_term(-1)
