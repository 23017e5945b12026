"""Isomorphism notions on (pointed) databases.

Definition 2.2 distinguishes three notions for pointed databases
``(B₁,u)`` and ``(B₂,v)``:

1. *isomorphism of databases* — a bijection of domains carrying each
   relation onto its counterpart (undecidable for r-dbs; Σ¹₁-complete by
   Proposition 2.1, cited from [M]);
2. *isomorphism of pointed databases* — as above, additionally taking
   ``u`` to ``v``;
3. *local isomorphism* ``(B₁,u) ≅ₗ (B₂,v)`` — the restrictions of the two
   databases to the elements of the tuples are isomorphic by a map taking
   ``u`` to ``v``.  This is decidable (Proposition 2.2) and is the notion
   everything in Section 2 is built on.

This module implements the decidable pieces: the local-isomorphism test
exactly as in the proof of Proposition 2.2, and one backtracking
isomorphism search for databases over *finite* domains — the substrate
for automorphism groups, for ``≅_B`` on databases whose facts sit on a
finite part (:func:`finite_part_equivalence`), for Theorem 6.1's gadget
validation, and for the finite QL baseline.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from itertools import product

from ..errors import TypeSignatureError
from ..util.partitions import equality_pattern
from ..util.seqs import all_position_tuples, project, support
from .database import PointedDatabase, RecursiveDatabase
from .domain import Element


def locally_isomorphic(p1: PointedDatabase, p2: PointedDatabase) -> bool:
    """Decide ``(B₁,u) ≅ₗ (B₂,v)`` (Proposition 2.2).

    The three computable checks of the proof:

    (i)   ``|u| = |v|``;
    (ii)  ``uᵢ = uⱼ`` iff ``vᵢ = vⱼ`` for all positions ``i, j``;
    (iii) for every relation index ``i`` and every choice of positions
          ``j₁,…,j_{aᵢ}``: ``(u_{j₁},…,u_{j_{aᵢ}}) ∈ Rᵢ`` iff the
          corresponding projection of ``v`` is in ``R'ᵢ``.
    """
    b1, u = p1.database, p1.u
    b2, v = p2.database, p2.u
    b1.check_same_type(b2)

    if len(u) != len(v):                                   # (i)
        return False
    if equality_pattern(u) != equality_pattern(v):         # (ii)
        return False
    n = len(u)
    for i, arity in enumerate(b1.type_signature):          # (iii)
        for positions in all_position_tuples(n, arity):
            if b1.contains(i, project(u, positions)) != \
                    b2.contains(i, project(v, positions)):
                return False
    return True


def local_isomorphism_witness(p1: PointedDatabase,
                              p2: PointedDatabase) -> dict[Element, Element] | None:
    """The witnessing bijection ``{u} → {v}`` if locally isomorphic, else None.

    The witness maps ``uᵢ ↦ vᵢ``; by check (ii) this is a well-defined
    bijection between the supports.
    """
    if not locally_isomorphic(p1, p2):
        return None
    return dict(zip(support(p1.u), support(p2.u)))


def _finite_universe(db: RecursiveDatabase) -> list[Element]:
    if not db.domain.is_finite:
        raise TypeSignatureError(
            "exhaustive isomorphism search requires a finite domain; "
            "for r-dbs use locally_isomorphic (Proposition 2.1: full "
            "isomorphism is undecidable)")
    return db.domain.first(db.domain.finite_size)  # type: ignore[arg-type]


def _element_profiles(db: RecursiveDatabase,
                      elements: Sequence[Element]) -> dict[Element, tuple]:
    """An isomorphism-invariant profile of each element — for each
    relation and argument position, how many tuples through it hold —
    so the search maps only elements with equal profiles."""
    counts = {x: [0] * sum(db.type_signature) for x in elements}
    offset = 0
    for i, arity in enumerate(db.type_signature):
        for t in product(elements, repeat=arity):
            if db.contains(i, t):
                for pos, x in enumerate(t):
                    counts[x][offset + pos] += 1
        offset += arity
    return {x: tuple(c) for x, c in counts.items()}


def _partial_consistent(db1: RecursiveDatabase, db2: RecursiveDatabase,
                        mapping: dict[Element, Element],
                        newly: Element) -> bool:
    """Check all atoms whose arguments are already mapped and involve the
    newly assigned element: each tuple once, by the first position
    holding ``newly`` (earlier positions range over the other mapped
    elements, later ones over all of them)."""
    assigned = list(mapping)
    others = [x for x in assigned if x != newly]
    for i, arity in enumerate(db1.type_signature):
        for first in range(arity):
            pools = [others] * first + [[newly]] + \
                [assigned] * (arity - first - 1)
            for t in product(*pools):
                image = tuple(mapping[x] for x in t)
                if db1.contains(i, t) != db2.contains(i, image):
                    return False
    return True


def finite_isomorphisms(db1: RecursiveDatabase, db2: RecursiveDatabase,
                        fixing: dict[Element, Element] | None = None
                        ) -> Iterator[dict[Element, Element]]:
    """Every isomorphism between finite-domain databases that extends
    ``fixing``, lazily, in lexicographic order of the images of ``db1``'s
    unfixed elements (by position in ``db2``'s domain).

    Backtracking search with incremental atom checking and
    degree-profile pruning; each fixed pair is searched first, as an
    element with one candidate.
    """
    db1.check_same_type(db2)
    e1 = _finite_universe(db1)
    e2 = _finite_universe(db2)
    fixing = fixing or {}
    if len(e1) != len(e2) or any(x not in db1.domain or y not in db2.domain
                                 for x, y in fixing.items()):
        return
    profiles1 = _element_profiles(db1, e1)
    profiles2 = profiles1 if db2 is db1 else _element_profiles(db2, e2)
    if sorted(profiles1.values()) != sorted(profiles2.values()):
        return
    order = list(fixing) + [x for x in e1 if x not in fixing]
    pairs = [(x, [y for y in ([fixing[x]] if x in fixing else e2)
                  if profiles1[x] == profiles2[y]]) for x in order]
    yield from _extend_isomorphism(db1, db2, {}, pairs, 0)


def _extend_isomorphism(db1: RecursiveDatabase, db2: RecursiveDatabase,
                        mapping: dict[Element, Element],
                        pairs: list[tuple[Element, list[Element]]],
                        index: int) -> Iterator[dict[Element, Element]]:
    """The backtracking step of :func:`finite_isomorphisms`: yield a copy
    of every injective, relation-consistent extension of ``mapping``
    (extended in place) over ``pairs[index:]``, each element of ``db1``
    with its candidates in ``db2``.  A module-level function, not a
    closure over itself, so a search leaves no reference cycle behind.
    """
    if index == len(pairs):
        yield dict(mapping)
        return
    x, candidates = pairs[index]
    for y in candidates:
        if y in mapping.values():
            continue
        mapping[x] = y
        if _partial_consistent(db1, db2, mapping, x):
            yield from _extend_isomorphism(db1, db2, mapping, pairs,
                                           index + 1)
        del mapping[x]


def finite_isomorphism(db1: RecursiveDatabase, db2: RecursiveDatabase,
                       fixing: dict[Element, Element] | None = None
                       ) -> dict[Element, Element] | None:
    """The first isomorphism :func:`finite_isomorphisms` finds, or None.

    ``fixing`` optionally pins part of the bijection (used to decide
    pointed isomorphism: fix ``uᵢ ↦ vᵢ``).
    """
    return next(finite_isomorphisms(db1, db2, fixing), None)


def finite_pointed_isomorphic(p1: PointedDatabase,
                              p2: PointedDatabase) -> bool:
    """Decide ``(B₁,u) ≅ (B₂,v)`` for finite-domain databases.

    This is Definition 2.2.2 made effective in the finite case: search for
    an isomorphism required to take ``u`` to ``v``.
    """
    if len(p1.u) != len(p2.u):
        return False
    if equality_pattern(p1.u) != equality_pattern(p2.u):
        return False
    fixing = dict(zip(p1.u, p2.u))
    return finite_isomorphism(p1.database, p2.database, fixing=fixing) is not None


def finite_automorphisms(db: RecursiveDatabase) -> list[dict[Element, Element]]:
    """All automorphisms of a finite-domain database, in lexicographic
    order of the images.

    Listed by the search of :func:`finite_isomorphisms`, so the cost
    follows the group's order, not ``n!``.  The group closes the QLf+
    pipeline's outputs (Proposition 4.3) and decides ``≅_B`` through
    :func:`finite_part_equivalence`.
    """
    return list(finite_isomorphisms(db, db))


def finite_part_equivalence(finite_db: RecursiveDatabase
                            ) -> Callable[[tuple, tuple], bool]:
    """``≅_B`` for a database ``B`` whose facts all lie on a finite part
    ``F`` (``finite_db``) while every other element is interchangeable.

    Then ``Aut(B) = Aut(F) × Sym(rest)`` (Section 3's blown-up finite
    databases, Proposition 4.1's fcf bridge): ``u ≅_B v`` iff the
    equality patterns agree and some automorphism of ``F`` takes ``u``'s
    ``F``-positions to ``v``'s while ``v``'s other positions stay outside
    ``F``.  ``Aut(F)`` is listed once; each question scans it.
    """
    autos = finite_automorphisms(finite_db)
    df = set(_finite_universe(finite_db))

    def equiv(u: tuple, v: tuple) -> bool:
        if equality_pattern(u) != equality_pattern(v):
            return False
        for sigma in autos:
            for a, b in zip(u, v):
                if (sigma[a] != b) if a in df else (b in df):
                    break
            else:
                return True
        return False

    return equiv


def orbit_partition(db: RecursiveDatabase, tuples: Sequence[tuple]) -> list[list[tuple]]:
    """Partition ``tuples`` into orbits of the automorphism group of a
    finite-domain database.

    Two tuples are in the same orbit exactly when they are B-equivalent
    (Definition 3.1) in the finite database.
    """
    autos = finite_automorphisms(db)
    remaining = list(dict.fromkeys(tuple(t) for t in tuples))
    orbits: list[list[tuple]] = []
    while remaining:
        seed = remaining[0]
        orbit = {tuple(a[x] for x in seed) for a in autos}
        members = [t for t in remaining if t in orbit]
        orbits.append(members)
        remaining = [t for t in remaining if t not in orbit]
    return orbits
