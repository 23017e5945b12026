"""Tests for local isomorphism (Proposition 2.2) and finite isomorphism search."""

import gc
import random
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.database import (
    RecursiveDatabase,
    database_from_predicates,
    finite_database,
)
from repro.core.isomorphism import (
    finite_automorphisms,
    finite_isomorphism,
    finite_isomorphisms,
    finite_part_equivalence,
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


def directed_cycle(n):
    """The directed n-cycle i -> i+1 (mod n); its group is the n rotations."""
    return finite_database([(2, [(i, (i + 1) % n) for i in range(n)])],
                           range(n), name=f"C{n}")


def brute_force_automorphisms(db):
    """The n! reference: every permutation of the domain, in
    lexicographic order, kept when it carries each relation onto itself."""
    elements = db.domain.first(db.domain.finite_size)
    out = []
    for perm in permutations(elements):
        sigma = dict(zip(elements, perm))
        if all(db.contains(i, t) == db.contains(i, tuple(sigma[x] for x in t))
               for i, arity in enumerate(db.type_signature)
               for t in product(elements, repeat=arity)):
            out.append(sigma)
    return out


def random_finite_db(seed):
    """A seeded sparse finite database on at most 6 elements."""
    rng = random.Random(seed)
    n = rng.randint(0, 6)
    signature = rng.choice([(1,), (2,), (1, 2), (2, 2), (3,)])
    relations = []
    for arity in signature:
        tuples = list(product(range(n), repeat=arity))
        relations.append((arity, rng.sample(tuples, rng.randint(0, n))))
    return finite_database(relations, range(n), name=f"R{seed}")


def count_membership(monkeypatch, cap):
    """Count ``RecursiveDatabase.contains`` calls, failing past ``cap``.

    Returns a one-element list holding the running count.  The cap makes
    an exponential search fail fast instead of running for minutes.
    """
    calls = [0]
    original = RecursiveDatabase.contains

    def contains(self, i, u):
        calls[0] += 1
        if calls[0] > cap:
            raise AssertionError(f"more than {cap} membership checks")
        return original(self, i, u)

    monkeypatch.setattr(RecursiveDatabase, "contains", contains)
    return calls


class TestOneSearch:
    @pytest.mark.parametrize("seed", range(40))
    def test_automorphisms_match_brute_force_in_order(self, seed):
        db = random_finite_db(seed)
        expected = brute_force_automorphisms(db)
        got = finite_automorphisms(db)
        assert [list(a.items()) for a in got] == \
            [list(a.items()) for a in expected]

    @pytest.mark.parametrize("seed", range(0, 40, 4))
    def test_search_lists_exactly_the_extensions_of_fixing(self, seed):
        db = random_finite_db(seed)
        elements = db.domain.first(db.domain.finite_size)
        if not elements:
            return
        x = elements[0]
        for y in elements:
            expected = [a for a in brute_force_automorphisms(db)
                        if a[x] == y]
            assert list(finite_isomorphisms(db, db, {x: y})) == expected
            assert finite_isomorphism(db, db, {x: y}) == \
                (expected[0] if expected else None)

    def test_ten_cycle_group_found_by_search_not_by_scan(self, monkeypatch):
        # Trying the 10! permutations passes a million checks.
        calls = count_membership(monkeypatch, cap=50_000)
        autos = finite_automorphisms(directed_cycle(10))
        assert autos == [{i: (i + r) % 10 for i in range(10)}
                         for r in range(10)]
        assert calls[0] <= 50_000


class TestFinitePartEquivalence:
    def test_decides_on_the_finite_part(self):
        equiv = finite_part_equivalence(path_graph(3))
        g0, g1 = ("g", 0), ("g", 1)
        assert equiv((0,), (2,))                    # end-swap
        assert not equiv((0,), (1,))
        assert equiv((0, 1, g0), (2, 1, g1))
        assert not equiv((0, 2), (2, 1))
        assert equiv((g0, g1), (g1, g0))            # fresh elements
        assert not equiv((g0,), (0,))               # fresh vs finite
        assert not equiv((0, g0), (0, 0))           # equality pattern
