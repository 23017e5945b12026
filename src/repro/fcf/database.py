"""Finite/co-finite databases and the Proposition 4.1 bridge.

Definition 4.1: an *fcf-r-db* is an r-db whose relations are finite or
co-finite, carrying the finiteness indicators in its representation
(the indicators are not recoverable from the r-db alone).

Proposition 4.1 identifies fcf-r-dbs with the hs-r-dbs whose relations
are finite or co-finite, constructively in both directions:

* :meth:`FcfDatabase.to_hsdb` — the automorphism group factors as
  ``Aut(finite structure on Df) × Sym(D − Df)``, so ``≅_B`` is decidable
  and the characteristic tree computable, exactly as for the blown-up
  finite databases of Section 3;
* :func:`df_from_hsdb` — the paper's *shortest-d algorithm*: walk the
  characteristic tree for the shortest distinct-element path ``d`` with
  exactly one "new element" extension class; its elements are ``Df``.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import product

from ..core.database import RecursiveDatabase
from ..core.domain import Element, naturals_domain
from ..core.isomorphism import finite_part_equivalence
from ..core.relation import RecursiveRelation
from ..errors import NotHighlySymmetricError, RepresentationError
from ..symmetric.constructions import build_tree
from ..symmetric.hsdb import HSDatabase
from .relation import FcfValue


class FcfDatabase:
    """An fcf-r-db: ℕ-domain plus finite/co-finite relations.

    All finite parts (relations or complements) must use integer
    constants; their union of constants is the finitary domain ``Df``.
    """

    def __init__(self, relations: Sequence[FcfValue], name: str = "B"):
        self.relations = tuple(relations)
        self.name = name
        self.domain = naturals_domain()
        for r in self.relations:
            for t in r.tuples:
                for x in t:
                    self.domain.check(x)

    @property
    def type_signature(self) -> tuple[int, ...]:
        return tuple(r.rank for r in self.relations)

    @property
    def df(self) -> frozenset[Element]:
        """``Df``: all constants appearing in the finite parts."""
        out = set()
        for r in self.relations:
            for t in r.tuples:
                out.update(t)
        return frozenset(out)

    def contains(self, i: int, u: Sequence[Element]) -> bool:
        return self.relations[i].contains(tuple(u))

    def as_rdb(self) -> RecursiveDatabase:
        """The plain r-db (indicators forgotten)."""
        relations = [
            RecursiveRelation(r.rank,
                              (lambda rel: lambda u: rel.contains(u))(r),
                              name=f"R{i + 1}")
            for i, r in enumerate(self.relations)
        ]
        return RecursiveDatabase(self.domain, relations, name=self.name)

    def finite_structure(self) -> RecursiveDatabase:
        """The finite database over ``Df`` of all finite parts.

        Relation ``i`` holds the finite part when ``Rᵢ`` is finite and
        the complement when co-finite; its automorphism group is exactly
        ``Aut(B)`` restricted to ``Df`` (see module docstring).
        """
        from ..core.database import finite_database
        parts = [(r.rank, sorted(r.tuples)) for r in self.relations]
        return finite_database(parts, sorted(self.df),
                               name=f"{self.name}|Df")

    def to_hsdb(self) -> HSDatabase:
        """Proposition 4.1, first direction: the hs-r-db representation."""
        df = sorted(self.df)
        df_set = set(df)
        equiv = finite_part_equivalence(self.finite_structure())

        def candidates(path):
            pool = list(df)
            pool.extend(x for x in dict.fromkeys(path) if x not in df_set)
            fresh = 0
            while fresh in df_set or fresh in path:
                fresh += 1
            pool.append(fresh)
            return pool

        tree = build_tree(equiv, candidates, name=f"T({self.name})")
        reps = []
        for i, r in enumerate(self.relations):
            members = {p for p in tree.level(r.rank) if r.contains(p)}
            reps.append(frozenset(members))
        return HSDatabase(self.domain, self.type_signature, tree, equiv,
                          reps, name=self.name)


def df_from_hsdb(hsdb: HSDatabase, max_rank: int = 12) -> frozenset:
    """Proposition 4.1, second direction: recover ``Df`` from ``CB``.

    The shortest-d algorithm: the shortest tree path ``d`` such that

    (i)  its components are pairwise distinct, and
    (ii) ``T(d)`` contains exactly one extension by a new element

    has ``{d₁,…,dₙ} = Df``.  (A path missing some ``Df`` element has at
    least two new-element extension classes; a path containing a generic
    element is not shortest.)
    """
    tree = hsdb.tree
    for n in range(max_rank + 1):
        for d in tree.level(n):
            if len(set(d)) != len(d):
                continue
            new_children = [a for a in tree.children(d) if a not in d]
            if len(new_children) == 1:
                return frozenset(d)
    raise NotHighlySymmetricError(
        f"no Df-extracting path found up to rank {max_rank}; the database "
        "does not look finite/co-finite")


def fcf_from_hsdb(hsdb: HSDatabase, max_rank: int = 12) -> FcfDatabase:
    """Recover the full fcf representation from an fcf-shaped hs-r-db.

    Uses :func:`df_from_hsdb` for ``Df``, then classifies each relation:
    it is co-finite iff some representative class contains a tuple with
    a generic (non-``Df``) component; the finite part / complement is
    read off ``Df``-tuples by membership.
    """
    df = sorted(df_from_hsdb(hsdb, max_rank=max_rank), key=repr)
    df_set = set(df)
    values = []
    for i, arity in enumerate(hsdb.signature):
        has_generic_member = any(
            any(x not in df_set for x in p)
            for p in hsdb.representatives[i])
        df_members = {t for t in product(df, repeat=arity)
                      if hsdb.contains(i, t)}
        if has_generic_member:
            comp = {t for t in product(df, repeat=arity)
                    if not hsdb.contains(i, t)}
            values.append(FcfValue(arity, frozenset(comp), cofinite=True))
        else:
            values.append(FcfValue(arity, frozenset(df_members)))
    if any(not isinstance(x, int) for x in df):
        raise RepresentationError(
            "fcf recovery requires integer constants (the ℕ domain of "
            "Definition 4.1)")
    return FcfDatabase(values, name=f"{hsdb.name}|fcf")
