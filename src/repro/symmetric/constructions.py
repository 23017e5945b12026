"""Constructions of highly symmetric recursive databases.

Each construction produces an :class:`~repro.symmetric.hsdb.HSDatabase`,
i.e. the full Definition 3.7 package: a decidable ``≅_B`` predicate, a
computable characteristic tree, and the representative sets ``Cᵢ``.
Families provided:

* :func:`infinite_clique` — the paper's first positive example (§3.1);
* :func:`from_finite_database` — a finite database embedded in an
  infinite domain whose fresh elements carry no facts (the hs-side of
  the finite/co-finite picture, Proposition 4.1);
* :func:`component_union` — disjoint unions of finitely many
  pairwise-non-isomorphic finite components, each with finite or
  infinite multiplicity (§3.1's "highly symmetric graph consists of …
  finitely many pairwise non-isomorphic components");
* :func:`build_tree` — the generic candidate-pool tree builder the
  others share.

Every ``≅_B`` here is genuinely decidable because the automorphism
groups factor as (finite group on the structured part) × (full symmetric
group on interchangeable parts).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from itertools import permutations

from ..core.database import RecursiveDatabase
from ..core.domain import (
    Domain,
    Element,
    finite_domain,
    naturals_domain,
    tagged_domain,
    union_domain,
)
from ..core.isomorphism import finite_automorphisms, finite_isomorphism
from ..errors import NotHighlySymmetricError, TypeSignatureError
from ..util.partitions import equality_pattern
from .hsdb import HSDatabase
from .tree import CharacteristicTree, Path

CandidateFn = Callable[[Path], Sequence[Element]]
EquivFn = Callable[[tuple, tuple], bool]


def build_tree(equiv: EquivFn, candidates: CandidateFn,
               name: str = "T", branching_bound: int | None = 4096
               ) -> CharacteristicTree:
    """Characteristic tree from an equivalence predicate and candidate pools.

    ``candidates(path)`` must return a finite pool containing at least one
    element of every ``≅_B`` class of one-element extensions of ``path``
    (the per-construction completeness argument).  Children are the
    pool filtered greedily so siblings are pairwise non-equivalent; since
    equivalent paths have equivalent prefixes, sibling-level filtering
    keeps all root paths pairwise non-equivalent.
    """

    def children(path: Path) -> tuple[Element, ...]:
        kept: list[Element] = []
        for a in candidates(path):
            ext = path + (a,)
            if not any(equiv(ext, path + (b,)) for b in kept):
                kept.append(a)
        return tuple(kept)

    return CharacteristicTree(children, name=name,
                              branching_bound=branching_bound)


def canonical_path(tree: CharacteristicTree, equiv: EquivFn,
                   u: tuple) -> Path:
    """The tree path equivalent to ``u`` (used before an HSDatabase exists)."""
    for p in tree.level(len(u)):
        if equiv(p, u):
            return p
    raise NotHighlySymmetricError(
        f"no tree path of rank {len(u)} is equivalent to {u!r}")


# ---------------------------------------------------------------------------
# The infinite clique.
# ---------------------------------------------------------------------------

def infinite_clique(name: str = "clique") -> HSDatabase:
    """The full infinite clique over ℕ — highly symmetric (§3.1).

    Every bijection of ℕ is an automorphism, so ``u ≅_B v`` iff the
    equality patterns coincide; ``Tⁿ`` has exactly Bell(n) paths.
    """

    def equiv(u: tuple, v: tuple) -> bool:
        return equality_pattern(u) == equality_pattern(v)

    def candidates(path: Path) -> list[int]:
        fresh = 0
        while fresh in path:
            fresh += 1
        return list(dict.fromkeys(path)) + [fresh]

    tree = build_tree(equiv, candidates, name=f"T({name})")
    reps = [frozenset({canonical_path(tree, equiv, (0, 1))})]
    return HSDatabase(naturals_domain(), (2,), tree, equiv, reps, name=name)


# ---------------------------------------------------------------------------
# A finite database blown up into an infinite domain.
# ---------------------------------------------------------------------------

def from_finite_database(finite_db: RecursiveDatabase,
                         name: str | None = None) -> HSDatabase:
    """Embed a finite database into an infinite domain as an hs-r-db.

    The relations are exactly the finite database's tuples; the countably
    many fresh elements participate in no relation and are therefore all
    interchangeable.  ``Aut(B) = Aut(F) × Sym(fresh)``, so ``≅_B`` is
    decided by searching the (finite) automorphism group of ``F`` —
    this is the highly symmetric face of the fcf databases of Section 4
    (Proposition 4.1) restricted to finite relations.
    """
    if not finite_db.domain.is_finite:
        raise TypeSignatureError(
            "from_finite_database requires a finite-domain database")
    name = name or f"{finite_db.name}^inf"
    df = list(finite_db.domain.first(finite_db.domain.finite_size))
    df_set = set(df)
    autos = finite_automorphisms(finite_db)

    def equiv(u: tuple, v: tuple) -> bool:
        if equality_pattern(u) != equality_pattern(v):
            return False
        for sigma in autos:
            ok = True
            for a, b in zip(u, v):
                if a in df_set:
                    if sigma[a] != b:
                        ok = False
                        break
                elif b in df_set:
                    ok = False
                    break
            if ok:
                return True
        return False

    def candidates(path: Path) -> list[Element]:
        pool: list[Element] = list(df)
        pool.extend(x for x in dict.fromkeys(path) if x not in df_set)
        j = 0
        while ("g", j) in path:
            j += 1
        pool.append(("g", j))
        return pool

    tree = build_tree(equiv, candidates, name=f"T({name})")
    reps = []
    for i, relation in enumerate(finite_db.relations):
        tuples = getattr(relation, "tuples", None)
        if tuples is None:
            raise TypeSignatureError(
                "from_finite_database requires explicitly finite relations")
        reps.append(frozenset(canonical_path(tree, equiv, t) for t in tuples))

    domain = union_domain(
        [finite_domain(df, name="Df"),
         tagged_domain(naturals_domain(), "g")],
        name=f"D({name})")
    return HSDatabase(domain, finite_db.type_signature, tree, equiv, reps,
                      name=name)


# ---------------------------------------------------------------------------
# Disjoint unions of finite components.
# ---------------------------------------------------------------------------

INFINITE = None
"""Multiplicity marker: countably infinitely many copies."""


class _Component:
    """Internal: one component kind with its automorphism data."""

    def __init__(self, index: int, db: RecursiveDatabase,
                 multiplicity: int | None):
        self.index = index
        self.db = db
        self.multiplicity = multiplicity
        self.nodes = list(db.domain.first(db.domain.finite_size))
        if multiplicity is not None and multiplicity < 1:
            raise ValueError("multiplicity must be >= 1 or INFINITE")

    def partial_map_extends(self, pairs: list[tuple[Element, Element]]) -> bool:
        """Whether the partial node map extends to a component automorphism."""
        fixing: dict[Element, Element] = {}
        for a, b in pairs:
            if a in fixing:
                if fixing[a] != b:
                    return False
            else:
                fixing[a] = b
        if len(set(fixing.values())) != len(fixing):
            return False
        return finite_isomorphism(self.db, self.db, fixing=fixing) is not None


def component_union(components: Sequence[tuple[RecursiveDatabase, int | None]],
                    name: str = "components") -> HSDatabase:
    """The disjoint union of finite components, as an hs-r-db.

    ``components`` lists ``(finite_db, multiplicity)`` pairs; multiplicity
    ``INFINITE`` (None) means countably many copies.  The component
    databases must share one type signature and be pairwise
    non-isomorphic (validated), so the automorphism group is the direct
    product over kinds of ``Aut(component) wr Sym(copies)`` and ``≅_B``
    is decidable by finite matching.

    Domain elements are ``(kind_index, copy_index, node)`` triples.
    Relations hold within single copies only (disjoint union semantics).
    At least one multiplicity must be infinite so the domain is infinite.
    """
    if not components:
        raise ValueError("component_union needs at least one component")
    kinds = [_Component(i, db, mult)
             for i, (db, mult) in enumerate(components)]
    signature = kinds[0].db.type_signature
    for kind in kinds[1:]:
        if kind.db.type_signature != signature:
            raise TypeSignatureError(
                "all components must share one type signature")
    for i, a in enumerate(kinds):
        for b in kinds[i + 1:]:
            if finite_isomorphism(a.db, b.db) is not None:
                raise ValueError(
                    f"components {a.index} and {b.index} are isomorphic; "
                    "merge them into one kind with a larger multiplicity")
    if all(kind.multiplicity is not None for kind in kinds):
        raise ValueError(
            "at least one multiplicity must be INFINITE so the domain is "
            "countably infinite (Definition 2.1)")

    def in_domain(x: Element) -> bool:
        if not (isinstance(x, tuple) and len(x) == 3):
            return False
        kind_index, copy_index, node = x
        if not isinstance(kind_index, int) or not 0 <= kind_index < len(kinds):
            return False
        kind = kinds[kind_index]
        if not isinstance(copy_index, int) or copy_index < 0:
            return False
        if kind.multiplicity is not None and copy_index >= kind.multiplicity:
            return False
        return node in kind.db.domain

    def enumerate_domain():
        copy = 0
        while True:
            emitted = False
            for kind in kinds:
                if kind.multiplicity is not None and copy >= kind.multiplicity:
                    continue
                emitted = True
                for node in kind.nodes:
                    yield (kind.index, copy, node)
            if not emitted:
                return
            copy += 1

    domain = Domain(in_domain, enumerate_domain, name=f"D({name})")

    def equiv(u: tuple, v: tuple) -> bool:
        if equality_pattern(u) != equality_pattern(v):
            return False
        if not all(in_domain(x) for x in u + v):
            return False
        used_u = _copies_used(u)
        used_v = _copies_used(v)
        return _match_copies(kinds, u, v, used_u, used_v)

    def candidates(path: Path) -> list[Element]:
        pool: list[Element] = []
        used: dict[tuple[int, int], None] = {}
        for x in path:
            used.setdefault((x[0], x[1]), None)
        # Nodes of copies already touched by the path.
        for kind_index, copy_index in used:
            kind = kinds[kind_index]
            pool.extend((kind_index, copy_index, node) for node in kind.nodes)
        # One fresh copy of each kind, when available.
        for kind in kinds:
            used_indices = {c for (t, c) in used if t == kind.index}
            fresh = 0
            while fresh in used_indices:
                fresh += 1
            if kind.multiplicity is None or fresh < kind.multiplicity:
                pool.extend((kind.index, fresh, node) for node in kind.nodes)
        return pool

    tree = build_tree(equiv, candidates, name=f"T({name})")

    reps = []
    for i, arity in enumerate(signature):
        members = set()
        for kind in kinds:
            relation = kind.db.relations[i]
            for t in getattr(relation, "tuples", frozenset()):
                lifted = tuple((kind.index, 0, node) for node in t)
                members.add(canonical_path(tree, equiv, lifted))
        reps.append(frozenset(members))

    return HSDatabase(domain, signature, tree, equiv, reps, name=name)


def _copies_used(u: tuple) -> list[tuple[int, int]]:
    out: dict[tuple[int, int], None] = {}
    for x in u:
        out.setdefault((x[0], x[1]), None)
    return list(out)


def _match_copies(kinds: list[_Component], u: tuple, v: tuple,
                  used_u: list[tuple[int, int]],
                  used_v: list[tuple[int, int]]) -> bool:
    """Search a kind-preserving bijection of used copies under which every
    per-copy partial node map extends to a component automorphism."""
    if len(used_u) != len(used_v):
        return False
    by_kind_u: dict[int, list[tuple[int, int]]] = {}
    by_kind_v: dict[int, list[tuple[int, int]]] = {}
    for c in used_u:
        by_kind_u.setdefault(c[0], []).append(c)
    for c in used_v:
        by_kind_v.setdefault(c[0], []).append(c)
    if set(by_kind_u) != set(by_kind_v):
        return False
    if any(len(by_kind_u[t]) != len(by_kind_v[t]) for t in by_kind_u):
        return False

    # Copies of different kinds never map to each other, so the kinds
    # are independent: the bijection exists iff each kind has one.
    return all(
        any(all(_copy_pair_ok(kinds[t], cu, cv, u, v)
                for cu, cv in zip(by_kind_u[t], perm))
            for perm in permutations(by_kind_v[t]))
        for t in sorted(by_kind_u))


def _copy_pair_ok(kind: _Component, cu: tuple[int, int], cv: tuple[int, int],
                  u: tuple, v: tuple) -> bool:
    pairs = []
    for a, b in zip(u, v):
        in_cu = (a[0], a[1]) == cu
        in_cv = (b[0], b[1]) == cv
        if in_cu != in_cv:
            return False
        if in_cu:
            pairs.append((a[2], b[2]))
    return kind.partial_map_extends(pairs)


# ---------------------------------------------------------------------------
# Stretchings (Proposition 3.1) within the hs world.
# ---------------------------------------------------------------------------

def stretch_hsdb(hsdb: HSDatabase, constants: Sequence[Element],
                 search_window: int = 512,
                 name: str | None = None) -> HSDatabase:
    """The *stretching* of an hs-r-db by constants, as an hs-r-db.

    Section 3.1: a stretching appends, for each constant ``d``, the
    singleton unary relation ``{(d,)}``.  Its automorphisms are those of
    ``B`` fixing every constant, so

        ``u ≅_{B'} v  iff  (d̄ · u) ≅_B (d̄ · v)``

    — computable from the original oracle.  The characteristic tree is
    rebuilt with candidate pools drawn from the constants, the path, and
    domain-searched witnesses of each original extension class
    (Proposition 3.1 guarantees finite branching exactly when ``B`` is
    highly symmetric, which :class:`CharacteristicTree`'s duplicate
    filtering then certifies level by level).
    """
    constants = tuple(hsdb.domain.check(c) for c in constants)
    name = name or f"{hsdb.name}+{len(constants)}c"
    signature = hsdb.signature + (1,) * len(constants)

    def equiv(u: tuple, v: tuple) -> bool:
        return hsdb.equivalent(constants + u, constants + v)

    def candidates(path: Path) -> list[Element]:
        base = constants + tuple(path)
        pool: list[Element] = list(dict.fromkeys(base))
        rep = hsdb.canonical_representative(base)
        for a in hsdb.tree.children(rep):
            target = rep + (a,)
            found = None
            for e in pool:
                if hsdb.equivalent(base + (e,), target):
                    found = e
                    break
            if found is None:
                for e in hsdb.domain.first(search_window):
                    if hsdb.equivalent(base + (e,), target):
                        found = e
                        break
            if found is None:
                raise NotHighlySymmetricError(
                    f"no witness for extension class {target!r} within "
                    f"the first {search_window} domain elements")
            if found not in pool:
                pool.append(found)
        return pool

    tree = build_tree(equiv, candidates, name=f"T({name})")

    # ≅_{B'} refines ≅_B, so the old relations are still unions of whole
    # new classes — but of *more* of them: each relation's representative
    # set is read off the new tree level by original membership.
    reps: list[frozenset[Path]] = []
    for i, arity in enumerate(hsdb.signature):
        members = {p for p in tree.level(arity) if hsdb.contains(i, p)}
        reps.append(frozenset(members))
    for d in constants:
        reps.append(frozenset({canonical_path(tree, equiv, (d,))}))

    return HSDatabase(hsdb.domain, signature, tree, equiv, reps, name=name)
