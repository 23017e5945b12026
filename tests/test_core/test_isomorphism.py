"""Tests for local isomorphism (Proposition 2.2) and finite isomorphism search."""

import gc

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.database import database_from_predicates, finite_database
from repro.core.isomorphism import (
    finite_automorphisms,
    finite_isomorphism,
    finite_pointed_isomorphic,
    local_isomorphism_witness,
    locally_isomorphic,
    orbit_partition,
)
from repro.errors import TypeSignatureError


def paper_R1_R2():
    """The Definition 2.2 example: R1 = {(a,a),(a,b)}, R2 = {(c,c)}."""
    B1 = finite_database([(2, [("a", "a"), ("a", "b")])], ["a", "b"], name="B1")
    B2 = finite_database([(2, [("c", "c")])], ["c"], name="B2")
    return B1, B2


class TestLocalIsomorphism:
    def test_paper_example_locally_isomorphic(self):
        """(R1,(a)) ≅ₗ (R2,(c)): restricted to a single element, both have
        the self-loop only."""
        B1, B2 = paper_R1_R2()
        assert locally_isomorphic(B1.point(("a",)), B2.point(("c",)))

    def test_paper_example_not_isomorphic(self):
        """(R1,(a)) ≇ (R2,(c)): the full structures differ."""
        B1, B2 = paper_R1_R2()
        assert not finite_pointed_isomorphic(B1.point(("a",)), B2.point(("c",)))

    def test_rank_mismatch(self):
        B1, B2 = paper_R1_R2()
        assert not locally_isomorphic(B1.point(("a", "b")), B2.point(("c",)))

    def test_equality_pattern_check(self):
        B1, B2 = paper_R1_R2()
        assert not locally_isomorphic(B1.point(("a", "a")), B1.point(("a", "b")))

    def test_atom_check(self):
        B1, _ = paper_R1_R2()
        # (a,b) in R1 but (b,a) not: so (B1,(a,b)) and (B1,(b,a)) differ.
        assert not locally_isomorphic(B1.point(("a", "b")), B1.point(("b", "a")))

    def test_empty_tuples_always_locally_isomorphic(self):
        """Part of Proposition 2.3.1: (B1,()) ≅ₗ (B2,()) for all B1, B2
        (of the same type) whose rank-0 facts agree."""
        B1 = finite_database([(2, [])], ["x"], name="B1")
        B2 = finite_database([(2, [("y", "y")])], ["y"], name="B2")
        assert locally_isomorphic(B1.point(()), B2.point(()))

    def test_type_mismatch_raises(self):
        B1, _ = paper_R1_R2()
        B3 = finite_database([(1, [("a",)])], ["a"])
        with pytest.raises(TypeSignatureError):
            locally_isomorphic(B1.point(("a",)), B3.point(("a",)))

    def test_works_on_infinite_databases(self):
        """Decidability (Prop 2.2) holds for genuinely infinite r-dbs."""
        B = database_from_predicates([(2, lambda x, y: x < y)])
        assert locally_isomorphic(B.point((1, 5)), B.point((2, 9)))
        assert not locally_isomorphic(B.point((1, 5)), B.point((5, 1)))

    def test_reflexive_symmetric(self):
        B = database_from_predicates([(2, lambda x, y: x % 3 == y % 3)])
        p, q = B.point((1, 4)), B.point((2, 5))
        assert locally_isomorphic(p, p)
        assert locally_isomorphic(p, q) == locally_isomorphic(q, p)

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=4))
    @settings(max_examples=30, deadline=None)
    def test_shift_invariance_on_order_free_db(self, u):
        """In a db defined by parities, shifting all elements by 2 is a
        partial automorphism, so local types are preserved."""
        B = database_from_predicates([(2, lambda x, y: (x + y) % 2 == 0)])
        v = tuple(x + 2 for x in u)
        assert locally_isomorphic(B.point(tuple(u)), B.point(v))

    def test_witness_mapping(self):
        B1, B2 = paper_R1_R2()
        w = local_isomorphism_witness(B1.point(("a",)), B2.point(("c",)))
        assert w == {"a": "c"}
        assert local_isomorphism_witness(
            B1.point(("a", "b")), B1.point(("b", "a"))) is None


def path_graph(n, name="P"):
    """Undirected path 0-1-…-(n-1) as a finite db with symmetric edges."""
    edges = []
    for i in range(n - 1):
        edges.append((i, i + 1))
        edges.append((i + 1, i))
    return finite_database([(2, edges)], range(n), name=name)


class TestFiniteIsomorphism:
    def test_isomorphic_paths(self):
        A = path_graph(3, "A")
        B = finite_database(
            [(2, [(10, 11), (11, 10), (11, 12), (12, 11)])],
            [10, 11, 12], name="B")
        assert finite_isomorphism(A, B) is not None

    def test_non_isomorphic(self):
        A = path_graph(3)
        B = finite_database([(2, [(0, 1), (1, 0)])], [0, 1, 2], name="B")
        assert finite_isomorphism(A, B) is None

    def test_size_mismatch(self):
        assert finite_isomorphism(path_graph(3), path_graph(4)) is None

    def test_fixing_respected(self):
        A = path_graph(3)
        # The path's only non-identity automorphism swaps the endpoints.
        assert finite_isomorphism(A, A, fixing={0: 2, 2: 0}) is not None
        assert finite_isomorphism(A, A, fixing={0: 1}) is None

    def test_pointed_isomorphism(self):
        A = path_graph(3)
        assert finite_pointed_isomorphic(A.point((0,)), A.point((2,)))
        assert not finite_pointed_isomorphic(A.point((0,)), A.point((1,)))

    def test_rejects_infinite_domain(self):
        B = database_from_predicates([(1, lambda x: x == 0)])
        with pytest.raises(TypeSignatureError):
            finite_isomorphism(B, B)

    def test_search_leaves_no_reference_cycle(self):
        # Reference counting alone frees a finished search; a recursive
        # closure would leave a cycle for the cyclic collector.
        A, B = path_graph(4, "A"), path_graph(4, "B")
        gc.collect()
        gc.disable()
        try:
            assert finite_isomorphism(A, B, fixing={0: 3}) is not None
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestAutomorphisms:
    def test_path_automorphisms(self):
        autos = finite_automorphisms(path_graph(3))
        assert len(autos) == 2  # identity and the end-swap

    def test_edgeless_graph_full_symmetric_group(self):
        B = finite_database([(2, [])], range(4))
        assert len(finite_automorphisms(B)) == 24

    def test_orbit_partition_path(self):
        A = path_graph(3)
        orbits = orbit_partition(A, [(0,), (1,), (2,)])
        as_sets = {frozenset(o) for o in orbits}
        assert as_sets == {frozenset({(0,), (2,)}), frozenset({(1,)})}

    def test_orbit_partition_pairs(self):
        A = path_graph(3)
        orbits = orbit_partition(A, [(0, 1), (1, 2), (2, 1)])
        as_sets = {frozenset(o) for o in orbits}
        assert as_sets == {frozenset({(0, 1), (2, 1)}), frozenset({(1, 2)})}
