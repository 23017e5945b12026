"""The engine's plan IR — one algebra all four frontends lower into.

Every query language in this library ultimately denotes a *union of
``≅_B`` classes* of one rank (that is what genericity, Definition 2.4,
buys: a generic query cannot split a class).  The plan IR makes that
explicit: a :class:`Plan` is a finite dataflow tree whose nodes denote
finite sets of characteristic-tree paths, and the executor evaluates it
bottom-up against an :class:`~repro.symmetric.hsdb.HSDatabase`.

Node kinds (the ISSUE's scan/filter/quantify/fixpoint/project, plus the
boolean combinators they need):

* **scan** — :class:`Scan` (the representatives ``Cᵢ`` of a stored
  relation) and :class:`FullScan` (the whole level ``Tⁿ``);
* **filter** — :class:`FilterEq` (coordinate equality) and
  :class:`FilterAtom` (σ over a stored relation);
* **project** — :class:`Project` (reorder / duplicate / drop
  coordinates, canonicalized back onto the tree) and :class:`Extend`
  (the tree-extension ``↑``, its right inverse);
* **quantify** — :class:`Quantify` binds away the *last* coordinate,
  existentially or universally;
* **join** — :class:`Join`, the representative-level cartesian product
  (QLhs ``Product``);
* **fixpoint** — :class:`Fixpoint` wraps a full QLhs program (its
  ``while`` loops are the iteration-to-fixpoint the node is named for)
  and :class:`MachineFixpoint` wraps a Theorem 5.1 GMhs query
  procedure; both are opaque to algebraic rewrites but participate in
  caching through their (hashable) payloads;
* **combinators** — :class:`Union`, :class:`Intersect`,
  :class:`Complement` (relative to ``Tⁿ``).

All nodes are frozen dataclasses: hashable, comparable, safe as cache
keys.  :func:`normalize` computes the canonical form the plan cache
keys on; :func:`plan_rank` is the static rank checker.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from ..errors import RankMismatchError, TypeSignatureError
from ..qlhs.ast import Program
from ..trace import limits


class Plan:
    """Base class of all plan nodes."""

    def __and__(self, other: "Plan") -> "Plan":
        return Intersect((self, other))

    def __or__(self, other: "Plan") -> "Plan":
        return Union((self, other))

    def __invert__(self) -> "Plan":
        return Complement(self)


# ---------------------------------------------------------------------------
# Scans.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Scan(Plan):
    """The stored relation ``Rᵢ`` as its representative set ``Cᵢ``."""

    index: int


@dataclass(frozen=True)
class FullScan(Plan):
    """``Tⁿ`` — every class of rank ``rank``."""

    rank: int


@dataclass(frozen=True)
class Empty(Plan):
    """``∅`` at rank ``rank`` — the other constant relation.

    The FO lowering emits it for ``false`` and the empty disjunction;
    the optimizer's folding rules (:mod:`repro.engine.optimize`)
    introduce it when a subplan is statically contradictory
    (``X ∩ ∁X``, ``∁Tⁿ``, …), and further rules propagate it upward.
    Genericity makes the folds exact: an empty union of ``≅_B`` classes
    stays empty under every generic operation that does not
    reintroduce paths.
    """

    rank: int


# ---------------------------------------------------------------------------
# Filters.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FilterEq(Plan):
    """Keep paths whose coordinates ``i`` and ``j`` carry equal labels.

    Sound on representatives because ``≅_B`` refines the equality
    pattern: two equivalent tuples agree on which coordinates coincide.
    Negative indices count from the end, as in
    :class:`~repro.qlhs.ast.SelectEq`.
    """

    child: Plan
    i: int
    j: int


@dataclass(frozen=True)
class FilterAtom(Plan):
    """``σ_{(p[pos₁],…,p[pos_a]) ∈ R_index}`` (or its negation).

    The projected tuple is canonicalized and tested against the
    representation's membership reconstruction.
    """

    child: Plan
    index: int
    positions: tuple[int, ...]
    negate: bool = False

    def __init__(self, child: Plan, index: int,
                 positions: Sequence[int], negate: bool = False):
        object.__setattr__(self, "child", child)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "positions", tuple(positions))
        object.__setattr__(self, "negate", bool(negate))


# ---------------------------------------------------------------------------
# Projections.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Project(Plan):
    """Output ``canon(p[c₁], …, p[c_m])`` for each child path ``p``.

    Subsumes QLhs ``↓`` (drop coordinate 0), ``~`` (swap the last two),
    and ``Permute``; coordinates may repeat or be dropped.  Projection
    preserves ``≅_B`` classes (genericity again), so canonicalizing the
    projected tuple is exact, not approximate.
    """

    child: Plan
    coords: tuple[int, ...]

    def __init__(self, child: Plan, coords: Sequence[int]):
        object.__setattr__(self, "child", child)
        object.__setattr__(self, "coords", tuple(coords))


@dataclass(frozen=True)
class Extend(Plan):
    """``↑`` — every one-label tree extension of every child path."""

    child: Plan


@dataclass(frozen=True)
class Join(Plan):
    """Cartesian product on representatives (QLhs ``Product``).

    ``{r ∈ T^{m+n} : canon(r[:m]) ∈ left ∧ canon(r[m:]) ∈ right}`` —
    scanning the concatenated level is what makes overlapping-element
    classes (absent from naive concatenation) appear, exactly as the
    interpreter's intrinsic computes it.
    """

    left: Plan
    right: Plan


# ---------------------------------------------------------------------------
# Quantification.
# ---------------------------------------------------------------------------

EXISTS = "exists"
FORALL = "forall"


@dataclass(frozen=True)
class Quantify(Plan):
    """Bind away the last coordinate of the child.

    ``exists``: a rank-``n`` class survives iff *some* extension of its
    representative lies in the child — and because quantifiers
    relativize to the characteristic tree (Theorem 6.3, first
    direction), "some extension" means "some tree child".  ``forall`` is
    the De Morgan dual, evaluated directly for exactness.
    """

    child: Plan
    kind: str  # EXISTS | FORALL

    def __post_init__(self):
        if self.kind not in (EXISTS, FORALL):
            raise ValueError(f"unknown quantifier kind {self.kind!r}")


# ---------------------------------------------------------------------------
# Combinators.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Union(Plan):
    """n-ary union of same-rank children (flattened by ``normalize``)."""

    children: tuple[Plan, ...]

    def __init__(self, children: Sequence[Plan]):
        object.__setattr__(self, "children", tuple(children))


@dataclass(frozen=True)
class Intersect(Plan):
    """n-ary intersection of same-rank children (QLhs ``∩``)."""

    children: tuple[Plan, ...]

    def __init__(self, children: Sequence[Plan]):
        object.__setattr__(self, "children", tuple(children))


@dataclass(frozen=True)
class Complement(Plan):
    """``Tⁿ − child`` — complement within the child's rank."""

    child: Plan


# ---------------------------------------------------------------------------
# Fixpoints (opaque procedural payloads).
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Fixpoint(Plan):
    """A full QLhs program, run to completion by the interpreter.

    QLhs ``while`` loops iterate to a stopping condition — the node's
    namesake.  The program AST is a frozen dataclass tree, so the node
    hashes structurally and result-caches across calls.
    """

    program: Program
    result_var: str = "Y1"


@dataclass(frozen=True)
class MachineFixpoint(Plan):
    """A Theorem 5.1 GMhs query procedure (run via ``run_query_gmhs``).

    The procedure is a Python callable; it hashes by identity, which
    bounds cache reuse to the lifetime of the callable — exactly the
    guarantee a per-process result cache can honour.

    ``max_steps`` caps the loading stage's synchronous GMhs steps; the
    executor combines it with the engine budget's deadline and
    cancellation flag (see ``docs/limits.md``).  Plans stay hashable,
    so the knob is a plain integer, not a live
    :class:`~repro.trace.Budget`.
    """

    procedure: object  # QueryProcedure; hashable by identity
    search_window: int = 512
    max_steps: int = limits.MACHINE_FIXPOINT


@dataclass(frozen=True)
class FcfFixpoint(Plan):
    """A QLf+ program over an fcf-r-db (Section 4 semantics).

    Evaluates to an :class:`~repro.fcf.relation.FcfValue` rather than a
    path set; only :class:`~repro.engine.executor.Engine` instances
    constructed over an :class:`~repro.fcf.database.FcfDatabase` execute
    it.
    """

    program: Program


# ---------------------------------------------------------------------------
# Hash caching.
# ---------------------------------------------------------------------------

def _install_cached_hash(cls: type) -> None:
    """Replace the dataclass-generated ``__hash__`` with a caching one.

    Plans are used as dict keys everywhere (both cache levels, the
    optimizer's memos, batch shared sets), and the generated hash walks
    the whole subtree on every call — profiling showed recursive
    hashing dominating cold evaluation.  Nodes are frozen, so the hash
    is computed once and stashed on the instance; child hashes are
    themselves cached, making the first hash of a tree ``O(n)`` total
    and every later one ``O(1)``.
    """
    generated = cls.__hash__

    def cached_hash(self, _generated=generated):
        h = self.__dict__.get("_hash")
        if h is None:
            h = _generated(self)
            object.__setattr__(self, "_hash", h)
        return h

    cls.__hash__ = cached_hash


for _cls in (Scan, FullScan, Empty, FilterEq, FilterAtom, Project, Extend,
             Join, Quantify, Union, Intersect, Complement, Fixpoint,
             MachineFixpoint, FcfFixpoint):
    _install_cached_hash(_cls)


# ---------------------------------------------------------------------------
# Static rank computation.
# ---------------------------------------------------------------------------

def plan_rank(plan: Plan, signature: Sequence[int],
              child_rank=None) -> int:
    """The output rank of a plan, statically (raises on rank errors).

    ``child_rank(child)`` gives a child's rank, raising when the child
    has none; by default it is this function, recursively.
    :class:`PlanMemo` passes its memoized ranker, so that each node of
    a tree it is asked about is checked once.
    """
    signature = tuple(signature)
    if child_rank is None:
        def child_rank(child: Plan) -> int:
            return plan_rank(child, signature)
    if isinstance(plan, Scan):
        if not 0 <= plan.index < len(signature):
            raise TypeSignatureError(
                f"Scan({plan.index}) out of range for type {signature}")
        return signature[plan.index]
    if isinstance(plan, FullScan):
        if plan.rank < 0:
            raise RankMismatchError("FullScan rank must be >= 0")
        return plan.rank
    if isinstance(plan, Empty):
        if plan.rank < 0:
            raise RankMismatchError("Empty rank must be >= 0")
        return plan.rank
    if isinstance(plan, FilterEq):
        n = child_rank(plan.child)
        i = plan.i if plan.i >= 0 else n + plan.i
        j = plan.j if plan.j >= 0 else n + plan.j
        if not (0 <= i < n and 0 <= j < n):
            raise RankMismatchError(
                f"FilterEq({plan.i}, {plan.j}) out of range for rank {n}")
        return n
    if isinstance(plan, FilterAtom):
        n = child_rank(plan.child)
        if not 0 <= plan.index < len(signature):
            raise TypeSignatureError(
                f"FilterAtom relation {plan.index} out of range for "
                f"type {signature}")
        if len(plan.positions) != signature[plan.index]:
            raise RankMismatchError(
                f"FilterAtom has {len(plan.positions)} positions; "
                f"R{plan.index + 1} has arity {signature[plan.index]}")
        if any(not 0 <= c < n for c in plan.positions):
            raise RankMismatchError(
                f"FilterAtom positions {plan.positions} out of range "
                f"for rank {n}")
        return n
    if isinstance(plan, Project):
        n = child_rank(plan.child)
        if any(not 0 <= c < n for c in plan.coords):
            raise RankMismatchError(
                f"Project coords {plan.coords} out of range for rank {n}")
        return len(plan.coords)
    if isinstance(plan, Extend):
        return child_rank(plan.child) + 1
    if isinstance(plan, Join):
        return child_rank(plan.left) + child_rank(plan.right)
    if isinstance(plan, Quantify):
        n = child_rank(plan.child)
        if n == 0:
            raise RankMismatchError("Quantify needs rank >= 1")
        return n - 1
    if isinstance(plan, (Union, Intersect)):
        ranks = {child_rank(c) for c in plan.children}
        if not plan.children:
            raise RankMismatchError(
                f"{type(plan).__name__} needs at least one child")
        if len(ranks) != 1:
            raise RankMismatchError(
                f"{type(plan).__name__} over mixed ranks {sorted(ranks)}")
        return ranks.pop()
    if isinstance(plan, Complement):
        return child_rank(plan.child)
    if isinstance(plan, (Fixpoint, MachineFixpoint, FcfFixpoint)):
        raise RankMismatchError(
            f"{type(plan).__name__} rank is dynamic (known only after "
            "execution)")
    raise TypeError(f"unknown plan node {plan!r}")


# ---------------------------------------------------------------------------
# Normalization (the plan-cache key).
# ---------------------------------------------------------------------------

class PlanMemo:
    """Memos of three pure functions of a subtree, for one caller:
    its static rank, its normal form, and its sort key among
    commutative siblings.

    The optimizer asks these about the same subtrees again and again:
    each pass re-normalizes the whole tree, and the rules ask for
    children's ranks.  Through one memo each node is answered once.
    Entries are keyed by node identity — a dict probe with no
    Python-level ``__hash__`` call — and hold their node, so an id
    cannot be reused while the memo lives.  A memo lives only as long
    as its caller keeps it: the values are not stored on the nodes,
    where they would live as long as every cached plan, nor in a
    process-wide table, which would grow without bound.
    """

    __slots__ = ("signature", "_ranks", "_normals", "_keys", "_shared")

    def __init__(self, signature: Sequence[int] | None = None):
        self.signature = tuple(signature) if signature is not None else None
        self._ranks: dict[int, tuple[Plan, int | None]] = {}
        self._normals: dict[int, tuple[Plan, Plan]] = {}
        self._keys: dict[int, tuple[Plan, str]] = {}
        self._shared: dict[Plan, Plan] = {}

    def rank(self, plan: Plan) -> int | None:
        """The static rank, or ``None`` when it is unknown (a dynamic
        fixpoint below, a missing signature) or the plan is ill-ranked."""
        entry = self._ranks.get(id(plan))
        if entry is None:
            try:
                rank = plan_rank(plan, self.signature or (),
                                 self._valid_rank)
            except (RankMismatchError, TypeSignatureError, TypeError):
                rank = None
            entry = self._ranks[id(plan)] = (plan, rank)
        return entry[1]

    def _valid_rank(self, plan: Plan) -> int:
        rank = self.rank(plan)
        if rank is None:
            raise RankMismatchError(f"{type(plan).__name__} has no rank")
        return rank

    def normalize(self, plan: Plan) -> Plan:
        """The canonical form of ``plan`` (see :func:`normalize`).  A
        subtree that is already canonical is returned as is."""
        entry = self._normals.get(id(plan))
        if entry is None:
            # Equal canonical forms become one node, so the identity-keyed
            # memos answer a repeated subtree as they answer the first.
            out = self._normal_form(plan)
            out = self._shared.setdefault(out, out)
            entry = self._normals[id(plan)] = (plan, out)
            # Canonical forms are fixpoints of normalization.
            self._normals[id(out)] = (out, out)
        return entry[1]

    def _key(self, plan: Plan) -> str:
        """``repr(plan)``, the stable order of commutative children,
        built from the children's memoized keys."""
        entry = self._keys.get(id(plan))
        if entry is None:
            parts = []
            for name in plan.__dataclass_fields__:
                value = getattr(plan, name)
                if isinstance(value, Plan):
                    text = self._key(value)
                elif name == "children":
                    text = ", ".join(map(self._key, value))
                    text = f"({text},)" if len(value) == 1 else f"({text})"
                else:
                    text = repr(value)
                parts.append(f"{name}={text}")
            key = f"{type(plan).__qualname__}({', '.join(parts)})"
            entry = self._keys[id(plan)] = (plan, key)
        return entry[1]

    def _normal_form(self, plan: Plan) -> Plan:
        if isinstance(plan, Complement):
            child = self.normalize(plan.child)
            if isinstance(child, Complement):
                return child.child
            return plan if child is plan.child else Complement(child)
        if isinstance(plan, (Union, Intersect)):
            cls = type(plan)
            flat: list[Plan] = []
            for c in plan.children:
                c = self.normalize(c)
                if isinstance(c, cls):
                    flat.extend(c.children)
                else:
                    flat.append(c)
            unique = tuple(sorted(set(flat), key=self._key))
            if len(unique) == 1:
                return unique[0]
            return plan if unique == plan.children else cls(unique)
        if isinstance(plan, FilterEq):
            i, j = sorted((plan.i, plan.j)) if (
                (plan.i >= 0) == (plan.j >= 0)) else (plan.i, plan.j)
            child = self.normalize(plan.child)
            if child is plan.child and (i, j) == (plan.i, plan.j):
                return plan
            return FilterEq(child, i, j)
        if isinstance(plan, FilterAtom):
            child = self.normalize(plan.child)
            if child is plan.child:
                return plan
            return FilterAtom(child, plan.index, plan.positions, plan.negate)
        if isinstance(plan, Project):
            child = self.normalize(plan.child)
            if self.signature is not None:
                n = self.rank(child)
                if n is not None and plan.coords == tuple(range(n)):
                    return child
            return plan if child is plan.child else Project(child,
                                                            plan.coords)
        if isinstance(plan, Extend):
            child = self.normalize(plan.child)
            return plan if child is plan.child else Extend(child)
        if isinstance(plan, Join):
            left = self.normalize(plan.left)
            right = self.normalize(plan.right)
            if left is plan.left and right is plan.right:
                return plan
            return Join(left, right)
        if isinstance(plan, Quantify):
            child = self.normalize(plan.child)
            return plan if child is plan.child else Quantify(child, plan.kind)
        # Leaves and opaque fixpoints are already canonical.
        return plan


def normalize(plan: Plan, signature: Sequence[int] | None = None) -> Plan:
    """The canonical form of a plan — the first cache level's key.

    Rewrites applied (all semantics-preserving):

    * ``¬¬e → e`` (complement is an involution within a rank);
    * nested unions/intersections flatten, deduplicate, and sort their
      children into a stable order (both are ACI);
    * singleton unions/intersections collapse to their child;
    * identity projections (``coords == (0, …, n−1)``) vanish — only
      when a ``signature`` is supplied, since the child's rank must be
      derivable to recognize them.

    Two plans that normalize identically share a plan-cache entry and —
    combined with a database fingerprint — a result-cache entry.
    """
    return PlanMemo(signature).normalize(plan)


def plan_size(plan: Plan) -> int:
    """Number of nodes — for stats and tests."""
    if isinstance(plan, (Scan, FullScan, Empty, Fixpoint, MachineFixpoint,
                         FcfFixpoint)):
        return 1
    if isinstance(plan, (Union, Intersect)):
        return 1 + sum(plan_size(c) for c in plan.children)
    if isinstance(plan, Join):
        return 1 + plan_size(plan.left) + plan_size(plan.right)
    return 1 + plan_size(plan.child)  # type: ignore[attr-defined]
