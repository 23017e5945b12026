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
exactly as in the proof of Proposition 2.2, and exhaustive isomorphism
search for databases over *finite* domains (the substrate for automorphism
groups, Theorem 6.1's gadget validation, and the finite QL baseline).
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import permutations

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


def _respects_relations(db1: RecursiveDatabase, db2: RecursiveDatabase,
                        mapping: dict[Element, Element],
                        elements: Sequence[Element]) -> bool:
    for i, arity in enumerate(db1.type_signature):
        for positions in all_position_tuples(len(elements), arity):
            t = project(elements, positions)
            image = tuple(mapping[x] for x in t)
            if db1.contains(i, t) != db2.contains(i, image):
                return False
    return True


def _element_profile(db: RecursiveDatabase, x: Element,
                     elements: Sequence[Element]) -> tuple:
    """An isomorphism-invariant profile of one element: for each relation
    and each argument position, how many tuples through ``x`` hold.

    Used to prune the backtracking search: an isomorphism can only map
    elements with equal profiles.
    """
    profile = []
    for i, arity in enumerate(db.type_signature):
        for pos in range(arity):
            count = 0
            for positions in all_position_tuples(len(elements), arity):
                t = project(elements, positions)
                if t[pos] == x and db.contains(i, t):
                    count += 1
            profile.append(count)
    return tuple(profile)


def _partial_consistent(db1: RecursiveDatabase, db2: RecursiveDatabase,
                        mapping: dict[Element, Element],
                        newly: Element) -> bool:
    """Check all atoms whose arguments are already mapped and involve the
    newly assigned element."""
    assigned = list(mapping)
    for i, arity in enumerate(db1.type_signature):
        for positions in all_position_tuples(len(assigned), arity):
            t = project(assigned, positions)
            if newly not in t:
                continue
            image = tuple(mapping[x] for x in t)
            if db1.contains(i, t) != db2.contains(i, image):
                return False
    return True


def finite_isomorphism(db1: RecursiveDatabase, db2: RecursiveDatabase,
                       fixing: dict[Element, Element] | None = None
                       ) -> dict[Element, Element] | None:
    """An isomorphism between finite-domain databases, or None.

    ``fixing`` optionally pins part of the bijection (used to decide
    pointed isomorphism: fix ``uᵢ ↦ vᵢ``).  Backtracking search with
    incremental atom checking and degree-profile pruning.
    """
    db1.check_same_type(db2)
    e1 = _finite_universe(db1)
    e2 = _finite_universe(db2)
    if len(e1) != len(e2):
        return None
    fixing = dict(fixing or {})
    for x, y in fixing.items():
        if x not in db1.domain or y not in db2.domain:
            return None
    if len(set(fixing.values())) != len(fixing):
        return None

    profiles1 = {x: _element_profile(db1, x, e1) for x in e1}
    profiles2 = {y: _element_profile(db2, y, e2) for y in e2}
    if sorted(profiles1.values()) != sorted(profiles2.values()):
        return None
    for x, y in fixing.items():
        if profiles1[x] != profiles2[y]:
            return None

    free1 = [x for x in e1 if x not in fixing]
    used = set(fixing.values())
    free2 = [y for y in e2 if y not in used]
    if len(free1) != len(free2):
        return None

    mapping = dict(fixing)
    # Validate the fixed part before extending it.
    for x in fixing:
        if not _partial_consistent(db1, db2, mapping, x):
            return None

    pairs = [(x, [y for y in free2 if profiles1[x] == profiles2[y]])
             for x in free1]
    if _extend_isomorphism(db1, db2, mapping, pairs, 0):
        return dict(mapping)
    return None


def _extend_isomorphism(db1: RecursiveDatabase, db2: RecursiveDatabase,
                        mapping: dict[Element, Element],
                        pairs: list[tuple[Element, list[Element]]],
                        index: int) -> bool:
    """The backtracking step of :func:`finite_isomorphism`.

    Extends ``mapping`` (in place) over ``pairs[index:]`` — each free
    element of ``db1`` with its profile-compatible candidates in
    ``db2`` — keeping it injective and consistent with every relation.
    A module-level function, not a closure over itself, so a search
    leaves no reference cycle behind.
    """
    if index == len(pairs):
        return True
    x, candidates = pairs[index]
    for y in candidates:
        if y in mapping.values():
            continue
        mapping[x] = y
        if _partial_consistent(db1, db2, mapping, x) and \
                _extend_isomorphism(db1, db2, mapping, pairs, index + 1):
            return True
        del mapping[x]
    return False


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
    """All automorphisms of a finite-domain database.

    The automorphism group drives ``≅_B`` for blown-up finite databases
    (Section 3 constructions) and the QLf+ pipeline of Proposition 4.3.
    """
    elements = _finite_universe(db)
    out = []
    for perm in permutations(elements):
        mapping = dict(zip(elements, perm))
        if _respects_relations(db, db, mapping, elements):
            out.append(mapping)
    return out


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
