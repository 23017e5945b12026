"""Tests for the finite relational algebra, QL, and unfoldings."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import OutOfFuel, RankMismatchError, TypeSignatureError
from repro.finite import (
    FiniteValue,
    QLInterpreter,
    cartesian,
    complement,
    difference,
    down,
    empty,
    equality,
    full,
    intersection,
    permute,
    project,
    select_eq,
    select_in,
    swap,
    unfold,
    unfold_hsdb,
    union,
    unit,
    up,
    value,
)
from repro.graphs import clique, infinite_line, mixed_components_hsdb, path_db
from repro.qlhs.parser import parse_program, parse_term

DOMAIN = [0, 1, 2]


class TestAlgebra:
    def test_full_and_empty(self):
        assert len(full(DOMAIN, 2)) == 9
        assert empty(3).is_empty
        assert unit().tuples == frozenset({()})

    def test_equality(self):
        assert equality(DOMAIN).tuples == frozenset(
            {(0, 0), (1, 1), (2, 2)})

    def test_boolean_ops(self):
        e = value(1, [(0,), (1,)])
        f = value(1, [(1,), (2,)])
        assert intersection(e, f).tuples == frozenset({(1,)})
        assert union(e, f).tuples == frozenset({(0,), (1,), (2,)})
        assert difference(e, f).tuples == frozenset({(0,)})
        assert complement(e, DOMAIN).tuples == frozenset({(2,)})

    def test_rank_mismatch(self):
        with pytest.raises(RankMismatchError):
            intersection(value(1, [(0,)]), value(2, [(0, 1)]))

    def test_up_down(self):
        e = value(1, [(0,)])
        assert up(e, DOMAIN).tuples == frozenset({(0, 0), (0, 1), (0, 2)})
        assert down(value(2, [(0, 1), (2, 1)])).tuples == frozenset({(1,)})
        assert down(unit()).is_empty  # aligned with QLhs's rank-0 rule

    def test_swap(self):
        assert swap(value(2, [(0, 1)])).tuples == frozenset({(1, 0)})
        with pytest.raises(RankMismatchError):
            swap(value(1, [(0,)]))

    def test_cartesian_project_permute(self):
        e = value(1, [(0,), (1,)])
        f = value(1, [(2,)])
        prod = cartesian(e, f)
        assert prod.tuples == frozenset({(0, 2), (1, 2)})
        assert project(prod, [1]).tuples == frozenset({(2,)})
        assert project(prod, [1, 0, 0]).rank == 3
        assert permute(prod, [1, 0]).tuples == frozenset({(2, 0), (2, 1)})

    def test_select(self):
        e = full(DOMAIN, 2)
        assert select_eq(e, 0, 1).tuples == equality(DOMAIN).tuples
        assert select_eq(e, 0, -1).tuples == equality(DOMAIN).tuples
        rel = frozenset({(0, 1)})
        assert select_in(e, rel, [0, 1]).tuples == frozenset({(0, 1)})

    def test_project_bounds(self):
        with pytest.raises(RankMismatchError):
            project(value(1, [(0,)]), [1])

    def test_permute_validation(self):
        with pytest.raises(RankMismatchError):
            permute(value(2, [(0, 1)]), [0, 0])

    @given(st.sets(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                   max_size=9))
    @settings(max_examples=30)
    def test_de_morgan_property(self, tuples):
        e = FiniteValue(2, frozenset(tuples))
        assert complement(complement(e, DOMAIN), DOMAIN) == e


class TestQLInterpreter:
    def test_requires_finite_db(self):
        with pytest.raises(TypeSignatureError):
            QLInterpreter(clique())

    def test_terms_match_algebra(self):
        P = path_db(3)
        it = QLInterpreter(P)
        assert it.eval_term(parse_term("E"), {}).tuples == frozenset(
            {(0, 0), (1, 1), (2, 2)})
        r1 = it.eval_term(parse_term("R1"), {})
        assert (0, 1) in r1.tuples
        comp = it.eval_term(parse_term("!R1"), {})
        assert len(comp) == 9 - len(r1)

    def test_program_execution(self):
        P = path_db(3)
        it = QLInterpreter(P)
        # Endpoints: nodes x with no two distinct neighbours... simpler:
        # nodes reachable in one step from node set of edges.
        store = it.execute(parse_program("Y1 := down(R1)"))
        assert store["Y1"].tuples == frozenset({(0,), (1,), (2,)})

    def test_while_and_fuel(self):
        P = path_db(2)
        it = QLInterpreter(P, budget=100)
        with pytest.raises(OutOfFuel):
            it.execute(parse_program(
                "Z := down(down(down(E))) ; while |Z| = 0 do { Y := E }"))

    def test_singleton_while(self):
        P = path_db(2)
        it = QLInterpreter(P)
        store = it.execute(parse_program(
            "Y := down(down(E)) ; while |Y| = 1 do { Y := down(Y) }"))
        assert store["Y"].is_empty


class TestUnfolding:
    def test_unfold_restricts(self):
        L = infinite_line()
        U = unfold(L, 4)
        assert U.domain.finite_size == 4
        assert U.contains(0, (2, 3))
        assert not U.contains(0, (3, 4))  # 4 is outside the unfolding

    def test_unfold_hsdb(self):
        cu = mixed_components_hsdb()
        U = unfold_hsdb(cu, 6)
        assert U.domain.finite_size == 6
        # Membership agrees with the hs reconstruction on the window.
        for u in [(a, b) for a in U.domain.first(6)
                  for b in U.domain.first(6)][:12]:
            assert U.contains(0, u) == cu.contains(0, u)

    def test_unfoldings_converge_pointwise(self):
        L = infinite_line()
        small = unfold(L, 3)
        large = unfold(L, 10)
        assert not small.contains(0, (3, 4))
        assert large.contains(0, (3, 4))
