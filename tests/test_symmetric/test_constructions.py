"""Tests for hs-r-db constructions: clique, blow-ups, component unions."""

import gc

import pytest

from repro.core import finite_database
from repro.errors import (
    NotHighlySymmetricError,
    RepresentationError,
    TypeSignatureError,
)
from repro.symmetric import (
    INFINITE,
    component_union,
    from_finite_database,
    infinite_clique,
)

BELL = [1, 1, 2, 5, 15]


def triangle():
    return finite_database(
        [(2, [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)])],
        [0, 1, 2], name="K3")


def single_edge():
    return finite_database([(2, [(0, 1), (1, 0)])], [0, 1], name="K2")


class TestInfiniteClique:
    def test_class_counts_are_bell_numbers(self):
        hs = infinite_clique()
        assert [hs.class_count(n) for n in range(5)] == BELL

    def test_membership(self):
        hs = infinite_clique()
        assert hs.contains(0, (3, 7))
        assert not hs.contains(0, (3, 3))

    def test_validates(self):
        infinite_clique().validate(max_rank=3)

    def test_equivalence_is_equality_pattern(self):
        hs = infinite_clique()
        assert hs.equivalent((1, 2, 1), (5, 9, 5))
        assert not hs.equivalent((1, 2, 1), (5, 9, 9))
        assert not hs.equivalent((1,), (5, 9))

    def test_canonicalization(self):
        hs = infinite_clique()
        assert hs.canonical_representative((42, 42)) == (0, 0)
        assert hs.canonical_representative((42, 17)) == (0, 1)

    def test_cross_check_against_direct_definition(self):
        from repro.core import database_from_predicates
        direct = database_from_predicates([(2, lambda x, y: x != y)])
        infinite_clique().cross_check_membership(direct, n_samples=25)


class TestFromFiniteDatabase:
    def test_membership_matches_finite_db(self):
        hs = from_finite_database(single_edge())
        assert hs.contains(0, (0, 1))
        assert hs.contains(0, (1, 0))
        assert not hs.contains(0, (0, 0))
        assert not hs.contains(0, (("g", 0), ("g", 1)))

    def test_fresh_elements_interchangeable(self):
        hs = from_finite_database(single_edge())
        assert hs.equivalent((("g", 0),), (("g", 7),))
        assert not hs.equivalent((("g", 0),), (0,))

    def test_finite_automorphisms_respected(self):
        """K2's swap automorphism makes (0,) ~ (1,)."""
        hs = from_finite_database(single_edge())
        assert hs.equivalent((0,), (1,))

    def test_asymmetric_db_distinguishes(self):
        """In a directed edge 0→1 the endpoints are not equivalent."""
        arrow = finite_database([(2, [(0, 1)])], [0, 1], name="arrow")
        hs = from_finite_database(arrow)
        assert not hs.equivalent((0,), (1,))

    def test_rank1_class_count(self):
        # K2: classes {0,1} (one orbit) and fresh — 2 classes.
        hs = from_finite_database(single_edge())
        assert hs.class_count(1) == 2
        # Directed arrow: 0, 1, fresh — 3 classes.
        arrow = finite_database([(2, [(0, 1)])], [0, 1], name="arrow")
        assert from_finite_database(arrow).class_count(1) == 3

    def test_validates(self):
        from_finite_database(single_edge()).validate(max_rank=2)

    def test_rejects_infinite_input(self):
        from repro.core import database_from_predicates
        B = database_from_predicates([(1, lambda x: True)])
        with pytest.raises(TypeSignatureError):
            from_finite_database(B)

    def test_cross_check_against_direct_definition(self):
        from repro.core import RecursiveDatabase, RecursiveRelation
        hs = from_finite_database(single_edge())
        direct = RecursiveDatabase(
            hs.domain,
            [RecursiveRelation(2, lambda u: set(u) == {0, 1} and u[0] != u[1])],
            name="direct")
        hs.cross_check_membership(direct, n_samples=25)


class TestComponentUnion:
    def test_membership_within_and_across(self):
        cu = component_union([(triangle(), INFINITE), (single_edge(), INFINITE)])
        assert cu.contains(0, ((0, 5, 0), (0, 5, 1)))      # within one K3
        assert not cu.contains(0, ((0, 0, 0), (0, 1, 0)))  # across copies
        assert not cu.contains(0, ((0, 0, 0), (1, 0, 0)))  # across kinds

    def test_copies_interchangeable(self):
        cu = component_union([(triangle(), INFINITE), (single_edge(), INFINITE)])
        u = ((0, 3, 0), (0, 3, 1))
        v = ((0, 9, 2), (0, 9, 0))   # different copy, different nodes
        assert cu.equivalent(u, v)

    def test_kinds_not_interchangeable(self):
        cu = component_union([(triangle(), INFINITE), (single_edge(), INFINITE)])
        tri_edge = ((0, 0, 0), (0, 0, 1))
        k2_edge = ((1, 0, 0), (1, 0, 1))
        assert not cu.equivalent(tri_edge, k2_edge)

    def test_equivalence_leaves_no_reference_cycle(self):
        # The copy matching is a plain expression over the kinds, not a
        # recursive closure, so an oracle question leaves no cycle.
        cu = component_union([(triangle(), INFINITE),
                              (single_edge(), INFINITE)])
        u = ((0, 3, 0), (0, 3, 1), (1, 2, 0))
        v = ((0, 9, 2), (0, 9, 0), (1, 4, 1))
        gc.collect()
        gc.disable()
        try:
            assert cu.equivalent(u, v)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_cross_copy_pairs(self):
        """Pairs spanning two K3 copies are equivalent regardless of copies."""
        cu = component_union([(triangle(), INFINITE)])
        u = ((0, 0, 0), (0, 1, 0))
        v = ((0, 5, 2), (0, 8, 1))
        assert cu.equivalent(u, v)

    def test_finite_multiplicity_membership(self):
        cu = component_union([(triangle(), 2), (single_edge(), INFINITE)])
        assert cu.contains(0, ((0, 1, 0), (0, 1, 1)))
        # Copy index 2 of the triangle does not exist.
        assert not cu.contains(0, ((0, 2, 0), (0, 2, 1)))

    def test_validates(self):
        cu = component_union([(triangle(), INFINITE), (single_edge(), INFINITE)])
        cu.validate(max_rank=2)

    def test_rejects_isomorphic_kinds(self):
        other_edge = finite_database([(2, [("a", "b"), ("b", "a")])],
                                     ["a", "b"], name="K2'")
        with pytest.raises(ValueError):
            component_union([(single_edge(), INFINITE), (other_edge, INFINITE)])

    def test_rejects_all_finite_multiplicities(self):
        with pytest.raises(ValueError):
            component_union([(triangle(), 3)])

    def test_rejects_mixed_signatures(self):
        unary = finite_database([(1, [(0,)])], [0], name="U")
        with pytest.raises(TypeSignatureError):
            component_union([(triangle(), INFINITE), (unary, INFINITE)])

    def test_rank1_classes(self):
        """K3 nodes are one orbit; K2 nodes one orbit — 2 rank-1 classes."""
        cu = component_union([(triangle(), INFINITE), (single_edge(), INFINITE)])
        assert cu.class_count(1) == 2

    def test_path_graph_components_orbits(self):
        """P3 = 0-1-2: endpoints vs middle give 2 node orbits."""
        p3 = finite_database(
            [(2, [(0, 1), (1, 0), (1, 2), (2, 1)])], [0, 1, 2], name="P3")
        cu = component_union([(p3, INFINITE)])
        assert cu.class_count(1) == 2
        assert cu.equivalent(((0, 0, 0),), ((0, 3, 2),))
        assert not cu.equivalent(((0, 0, 0),), ((0, 0, 1),))

    def test_domain_enumeration_fair(self):
        cu = component_union([(triangle(), INFINITE), (single_edge(), INFINITE)])
        first = cu.domain.first(10)
        kinds = {x[0] for x in first}
        assert kinds == {0, 1}


class TestRepresentationErrors:
    def test_bad_representative_rank(self):
        from repro.core import naturals_domain
        from repro.symmetric import CharacteristicTree, HSDatabase
        tree = CharacteristicTree(lambda p: (0,) if len(p) < 3 else ())
        with pytest.raises(RepresentationError):
            HSDatabase(naturals_domain(), (2,), tree,
                       lambda u, v: u == v, [frozenset({(0,)})])

    def test_wrong_number_of_rep_sets(self):
        from repro.core import naturals_domain
        from repro.symmetric import CharacteristicTree, HSDatabase
        tree = CharacteristicTree(lambda p: (0,) if len(p) < 3 else ())
        with pytest.raises(TypeSignatureError):
            HSDatabase(naturals_domain(), (2,), tree,
                       lambda u, v: u == v, [])

    def test_validate_catches_duplicate_classes(self):
        """A tree with two equivalent paths fails validation."""
        from repro.core import naturals_domain
        from repro.symmetric import CharacteristicTree, HSDatabase
        tree = CharacteristicTree(lambda p: (0, 1) if len(p) < 2 else ())
        hs = HSDatabase(naturals_domain(), (1,), tree,
                        lambda u, v: len(u) == len(v),  # everything equal
                        [frozenset()])
        with pytest.raises(RepresentationError):
            hs.validate(max_rank=1)

    def test_validate_catches_nontree_representative(self):
        from repro.core import naturals_domain
        from repro.symmetric import CharacteristicTree, HSDatabase
        tree = CharacteristicTree(lambda p: (0,) if len(p) < 2 else ())
        hs = HSDatabase(naturals_domain(), (1,), tree,
                        lambda u, v: u == v, [frozenset({(9,)})])
        with pytest.raises(RepresentationError):
            hs.validate(max_rank=1)

    def test_canonical_representative_missing_class(self):
        from repro.core import naturals_domain
        from repro.symmetric import CharacteristicTree, HSDatabase
        tree = CharacteristicTree(lambda p: (0,) if len(p) < 2 else ())
        hs = HSDatabase(naturals_domain(), (1,), tree,
                        lambda u, v: u == v, [frozenset()])
        with pytest.raises(RepresentationError):
            hs.canonical_representative((5,))
