"""Property-based tests on the library's algebraic invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import database_from_predicates, local_type_of
from repro.fcf import (
    FcfValue,
    complement as fcf_complement,
    down as fcf_down,
    intersection as fcf_intersection,
    swap as fcf_swap,
    union as fcf_union,
)
from repro.graphs import mixed_components_hsdb
from repro.qlhs import Comp, Inter, QLhsInterpreter, Rel, Swap, parse_term
from repro.symmetric import infinite_clique


# ---------------------------------------------------------------------------
# Strategies.
# ---------------------------------------------------------------------------

small_tuples = st.lists(st.integers(0, 6), min_size=1,
                        max_size=4).map(tuple)

fcf_values = st.builds(
    FcfValue,
    st.just(2),
    st.sets(st.tuples(st.integers(0, 3), st.integers(0, 3)),
            max_size=6).map(frozenset),
    st.booleans(),
)

PROBES = [(a, b) for a in range(5) for b in range(5)]


# ---------------------------------------------------------------------------
# Local types.
# ---------------------------------------------------------------------------

class TestLocalTypeProperties:
    @given(small_tuples)
    @settings(max_examples=40)
    def test_local_type_invariant_under_shift(self, u):
        """Databases defined by congruences are shift-invariant; the
        local type must be too (genericity at the type level)."""
        B = database_from_predicates(
            [(2, lambda x, y: (x - y) % 3 == 0)], name="mod3")
        v = tuple(x + 3 for x in u)
        assert local_type_of(B.point(u)) == local_type_of(B.point(v))

    @given(small_tuples)
    @settings(max_examples=40)
    def test_local_type_determines_projection_types(self, u):
        """Dropping the last component of a tuple coarsens its type
        consistently: equal types → equal prefix types."""
        B = database_from_predicates(
            [(2, lambda x, y: x < y)], name="lt")
        v = tuple(x + 7 for x in u)
        if local_type_of(B.point(u)) == local_type_of(B.point(v)):
            assert local_type_of(B.point(u[:-1])) == \
                local_type_of(B.point(v[:-1]))


# ---------------------------------------------------------------------------
# Canonicalization on hs-r-dbs.
# ---------------------------------------------------------------------------

class TestCanonicalizationProperties:
    @given(st.lists(st.integers(0, 9), min_size=1, max_size=3).map(tuple))
    @settings(max_examples=30, deadline=None)
    def test_idempotent_on_clique(self, u):
        hs = infinite_clique()
        p = hs.canonical_representative(u)
        assert hs.canonical_representative(p) == p
        assert hs.equivalent(u, p)

    @given(st.lists(
        st.tuples(st.integers(0, 1), st.integers(0, 2), st.integers(0, 2)),
        min_size=1, max_size=2).map(tuple))
    @settings(max_examples=25, deadline=None)
    def test_idempotent_on_components(self, u):
        cu = mixed_components_hsdb()
        # Clamp nodes into each kind's node range (K3: 0-2, K2: 0-1).
        u = tuple((k, c, n % (3 if k == 0 else 2)) for (k, c, n) in u)
        p = cu.canonical_representative(u)
        assert cu.canonical_representative(p) == p
        assert cu.equivalent(u, p)


# ---------------------------------------------------------------------------
# QLhs algebraic laws.
# ---------------------------------------------------------------------------

class TestQLhsLaws:
    @pytest.fixture(scope="class")
    def it(self):
        return QLhsInterpreter(mixed_components_hsdb(), budget=10 ** 7)

    def test_double_complement(self, it):
        assert it.eval_term(parse_term("!(!R1)"), {}) == \
            it.eval_term(parse_term("R1"), {})

    def test_intersection_idempotent(self, it):
        assert it.eval_term(parse_term("R1 & R1"), {}) == \
            it.eval_term(parse_term("R1"), {})

    def test_intersection_commutative(self, it):
        assert it.eval_term(parse_term("R1 & E"), {}) == \
            it.eval_term(parse_term("E & R1"), {})

    def test_swap_involution(self, it):
        assert it.eval_term(Swap(Swap(Rel(0))), {}) == \
            it.eval_term(Rel(0), {})

    def test_de_morgan(self, it):
        from repro.qlhs import union
        lhs = it.eval_term(union(Rel(0), Comp(Rel(0))), {})
        # R1 ∪ ¬R1 = T².
        assert lhs.paths == frozenset(it.hsdb.tree.level(2))


# ---------------------------------------------------------------------------
# fcf algebra laws.
# ---------------------------------------------------------------------------

class TestFcfLaws:
    @given(fcf_values)
    @settings(max_examples=50)
    def test_double_complement(self, v):
        assert fcf_complement(fcf_complement(v)) == v

    @given(fcf_values, fcf_values)
    @settings(max_examples=50)
    def test_de_morgan_pointwise(self, e, f):
        lhs = fcf_complement(fcf_intersection(e, f))
        rhs = fcf_union(fcf_complement(e), fcf_complement(f))
        for t in PROBES:
            assert lhs.contains(t) == rhs.contains(t)

    @given(fcf_values, fcf_values)
    @settings(max_examples=50)
    def test_intersection_pointwise(self, e, f):
        meet = fcf_intersection(e, f)
        for t in PROBES:
            assert meet.contains(t) == (e.contains(t) and f.contains(t))

    @given(fcf_values)
    @settings(max_examples=50)
    def test_swap_involution(self, v):
        assert fcf_swap(fcf_swap(v)) == v

    @given(fcf_values)
    @settings(max_examples=50)
    def test_projection_pointwise(self, v):
        projected = fcf_down(v)
        for a in range(4):
            expected = any(v.contains((x, a)) for x in range(-1, 5))
            if v.cofinite:
                # Prop 4.2: projection of co-finite is everything.
                assert projected.contains((a,))
            elif expected:
                assert projected.contains((a,))


# ---------------------------------------------------------------------------
# EF-game monotonicity.
# ---------------------------------------------------------------------------

class TestGameMonotonicity:
    def test_rounds_monotone(self):
        """Winning r+1 rounds implies winning r rounds (Definition 3.4's
        stratification is decreasing)."""
        from repro.symmetric import game_equivalent
        cu = mixed_components_hsdb()
        pairs = [
            (((0, 0, 0),), ((1, 0, 0),)),
            (((0, 0, 0),), ((0, 5, 2),)),
            (((0, 0, 0), (0, 0, 1)), ((1, 0, 0), (1, 0, 1))),
        ]
        for u, v in pairs:
            wins = [game_equivalent(cu, u, v, r) for r in range(4)]
            # Once lost, lost forever.
            assert all(not later or earlier
                       for earlier, later in zip(wins, wins[1:]))
