"""The rule-based plan optimizer.

Profiling the cold path (EXPERIMENTS E15/E20) shows evaluation cost is
dominated not by interpreter dispatch but by *canonicalization*: every
:class:`~repro.engine.plan.Project` node folds each projected tuple
back onto the characteristic tree via oracle (``≅_B``) questions, and
the paper's macro lowering of FO (the ``qlhs`` route's
``compile_formula``, and :func:`~repro.engine.frontends.
plan_from_formula_macro`) turns quantifiers into towers of
projections.  The optimizer is therefore aimed squarely at eliminating
canonicalizing nodes, with classic algebraic folding riding along:

* **projection fusion and prefix elimination** — adjacent projections
  compose (genericity makes ``canon(canon(t·c₁)·c₂) = canon(t·c₁·c₂)``
  exact, Definition 2.4), and a prefix projection ``(0..m−1)`` over a
  rank-``n`` child is exactly an ``∃``-chain of length ``n−m``
  (dropping the last label of a path needs *zero* oracle questions);
* **selection reordering and pushdown** — coordinate-equality filters
  sink below projections (the equality pattern is ``≅_B``-invariant)
  and inside filter chains run before oracle-backed atom filters;
* **complement pushdown** — De Morgan through unions/intersections and
  the two quantifier dualities ``∁∃ = ∀∁`` / ``∁∀ = ∃∁`` (both exact
  because quantification relativizes to the tree, Theorem 6.3);
* **empty/universal folding** — :class:`~repro.engine.plan.Empty` and
  :class:`~repro.engine.plan.FullScan` constants propagate
  (``X ∩ ∁X → ∅``, ``∀Tⁿ⁺¹ → Tⁿ``, …); soundness again leans on
  genericity: a statically empty/universal union of classes stays so
  under every generic operation;
* **join grounding** — a join whose operand is an Extend-tower over a
  rank-0 core is a *guarded* join: ``Join(↑ᵏx₀, B) =
  Join(x₀, Join(Tᵏ, B))``, which the executor (and especially the
  compiled backend, :mod:`repro.engine.compile`) evaluates without
  canonicalizing the tower.

Every rule fires only at nodes whose static rank is known and valid
(:func:`~repro.engine.plan.plan_rank` succeeds), so the optimizer never
rewrites around an opaque fixpoint and never changes the error
behaviour of an ill-ranked plan.  Rules that are **not** sound without
nonemptiness assumptions (``∃Tⁿ⁺¹ → Tⁿ``, ``∃↑c → c``) are deliberately
absent: a path may lack tree children.

:func:`optimize` runs whole-tree passes to a fixpoint (capped by
:data:`repro.trace.limits.OPTIMIZER_PASSES`), interleaved with
:func:`~repro.engine.plan.normalize`, and is idempotent —
``optimize(optimize(p)) == optimize(p)`` — which the property-test
battery (``tests/test_engine/test_optimize_properties.py``) checks on
generated plans, along with per-rule semantic preservation.  Within one
call, ranks, normal forms and whole passes are memoized per subtree
(:class:`~repro.engine.plan.PlanMemo`), so a call costs time in
proportion to the nodes it creates (``docs/optimizer.md``).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from ..trace import limits
from .plan import (
    EXISTS,
    FORALL,
    Complement,
    Empty,
    Extend,
    FcfFixpoint,
    FilterAtom,
    FilterEq,
    Fixpoint,
    FullScan,
    Intersect,
    Join,
    MachineFixpoint,
    Plan,
    PlanMemo,
    Project,
    Quantify,
    Scan,
    Union,
)

#: Nodes with no children (rewritten only through their parents).
LEAVES = (Scan, FullScan, Empty, Fixpoint, MachineFixpoint, FcfFixpoint)

#: Local rule applications per node per pass — a safety valve, far
#: above what any terminating rule sequence needs.
_NODE_ITERATIONS = 64

def _resolve(i: int, n: int) -> int:
    """A possibly-negative coordinate index, resolved against rank ``n``."""
    return i if i >= 0 else n + i


def _peel_extends(plan: Plan) -> tuple[int, Plan]:
    """Strip ``Extend`` wrappers: ``(k, core)`` with ``plan = ↑ᵏ core``."""
    k = 0
    while isinstance(plan, Extend):
        plan = plan.child
        k += 1
    return k, plan


def _peel_filters(plan: Plan) -> tuple[list[Plan], Plan]:
    """Strip a filter chain (outermost first): ``(chain, base)``."""
    chain: list[Plan] = []
    while isinstance(plan, (FilterEq, FilterAtom)):
        chain.append(plan)
        plan = plan.child
    return chain, plan


def _refilter(spec: Plan, child: Plan) -> Plan:
    """``spec`` (a filter node) re-rooted over ``child``."""
    if isinstance(spec, FilterEq):
        return FilterEq(child, spec.i, spec.j)
    return FilterAtom(child, spec.index, spec.positions, spec.negate)


# ---------------------------------------------------------------------------
# The rewrite rules.  Each takes (node, rank) — ``rank`` the call's
# memoized :meth:`~repro.engine.plan.PlanMemo.rank` — and returns a
# semantically equal replacement or None.  The driver only calls a rule
# when ``rank(node)`` is a valid int.
# ---------------------------------------------------------------------------

def _rw_complement_complement(node: Complement, rank) -> Plan | None:
    """``∁∁x → x`` (complement is an involution within a rank)."""
    if isinstance(node.child, Complement):
        return node.child.child
    return None


def _rw_complement_empty(node: Complement, rank) -> Plan | None:
    """``∁∅ → Tⁿ``."""
    if isinstance(node.child, Empty):
        return FullScan(node.child.rank)
    return None


def _rw_complement_full(node: Complement, rank) -> Plan | None:
    """``∁Tⁿ → ∅``."""
    if isinstance(node.child, FullScan):
        return Empty(node.child.rank)
    return None


def _rw_complement_union(node: Complement, rank) -> Plan | None:
    """De Morgan: ``∁(a ∪ b) → ∁a ∩ ∁b`` (complements sink)."""
    if isinstance(node.child, Union):
        return Intersect(tuple(Complement(c) for c in node.child.children))
    return None


def _rw_complement_intersect(node: Complement, rank) -> Plan | None:
    """De Morgan: ``∁(a ∩ b) → ∁a ∪ ∁b``."""
    if isinstance(node.child, Intersect):
        return Union(tuple(Complement(c) for c in node.child.children))
    return None


def _rw_complement_quantify(node: Complement, rank) -> Plan | None:
    """``∁∃c → ∀∁c`` and ``∁∀c → ∃∁c`` — exact even at childless
    paths (vacuous ``∀`` matches absent ``∃`` on both sides)."""
    if isinstance(node.child, Quantify):
        dual = FORALL if node.child.kind == EXISTS else EXISTS
        return Quantify(Complement(node.child.child), dual)
    return None


def _rw_filter_eq_resolve(node: FilterEq, rank) -> Plan | None:
    """Canonicalize ``FilterEq`` indices: non-negative, sorted."""
    n = rank(node.child)
    if n is None:
        return None
    i, j = _resolve(node.i, n), _resolve(node.j, n)
    lo, hi = (i, j) if i <= j else (j, i)
    if (lo, hi) != (node.i, node.j):
        return FilterEq(node.child, lo, hi)
    return None


def _rw_filter_eq_trivial(node: FilterEq, rank) -> Plan | None:
    """``σ_{i=i}(c) → c``."""
    n = rank(node.child)
    if n is not None and _resolve(node.i, n) == _resolve(node.j, n):
        return node.child
    return None


def _rw_filter_eq_order(node: FilterEq, rank) -> Plan | None:
    """Sort (and deduplicate) adjacent equality filters into a
    canonical inner-smallest order — enables sharing and dedup."""
    inner = node.child
    if not isinstance(inner, FilterEq):
        return None
    n = rank(inner.child)
    if n is None:
        return None
    outer_key = tuple(sorted((_resolve(node.i, n), _resolve(node.j, n))))
    inner_key = tuple(sorted((_resolve(inner.i, n), _resolve(inner.j, n))))
    if outer_key == inner_key:
        return inner
    if outer_key < inner_key:
        return FilterEq(FilterEq(inner.child, *outer_key), *inner_key)
    return None


def _rw_filter_eq_atom(node: FilterEq, rank) -> Plan | None:
    """Run the free equality test before the oracle-backed atom test:
    ``σ_{i=j}(σ_R(c)) → σ_R(σ_{i=j}(c))``."""
    if isinstance(node.child, FilterAtom):
        atom = node.child
        return FilterAtom(FilterEq(atom.child, node.i, node.j),
                          atom.index, atom.positions, atom.negate)
    return None


def _rw_filter_eq_project(node: FilterEq, rank) -> Plan | None:
    """Push an equality filter below a projection.  Sound because
    canonicalization preserves the equality pattern of a tuple
    (``≅_B`` refines it), so filtering projected representatives
    equals projecting filtered source paths."""
    if not isinstance(node.child, Project):
        return None
    coords = node.child.coords
    m = len(coords)
    a = coords[_resolve(node.i, m)]
    b = coords[_resolve(node.j, m)]
    lo, hi = (a, b) if a <= b else (b, a)
    return Project(FilterEq(node.child.child, lo, hi), coords)


def _rw_filter_empty(node: Plan, rank) -> Plan | None:
    """A filter over ``∅`` is ``∅``."""
    if isinstance(node.child, Empty):
        return node.child
    return None


def _rw_project_project(node: Project, rank) -> Plan | None:
    """Fuse adjacent projections: ``π_outer(π_inner(c)) →
    π_{inner∘outer}(c)`` — one canonicalization layer instead of two
    (coordinate selection preserves ``≅_B`` classes)."""
    if isinstance(node.child, Project):
        inner = node.child.coords
        return Project(node.child.child,
                       tuple(inner[c] for c in node.coords))
    return None


def _rw_project_identity(node: Project, rank) -> Plan | None:
    """``π_{0..n−1}(c) → c``."""
    n = rank(node.child)
    if n is not None and node.coords == tuple(range(n)):
        return node.child
    return None


def _rw_project_prefix(node: Project, rank) -> Plan | None:
    """A prefix projection is an ``∃``-chain: for canonical paths,
    ``π_{0..m−1}(p) = p[:m]``, so each dropped trailing coordinate is
    one relativized ``∃`` — and needs zero canonicalization."""
    n = rank(node.child)
    if n is None:
        return None
    m = len(node.coords)
    if m < n and node.coords == tuple(range(m)):
        out = node.child
        for __ in range(n - m):
            out = Quantify(out, EXISTS)
        return out
    return None


def _rw_project_empty(node: Project, rank) -> Plan | None:
    """``π(∅) → ∅`` at the projected rank."""
    if isinstance(node.child, Empty):
        return Empty(len(node.coords))
    return None


def _rw_extend_empty(node: Extend, rank) -> Plan | None:
    """``↑∅ → ∅``."""
    if isinstance(node.child, Empty):
        return Empty(node.child.rank + 1)
    return None


def _rw_extend_full(node: Extend, rank) -> Plan | None:
    """``↑Tⁿ → Tⁿ⁺¹`` — extending every level path by every tree child
    is exactly the next level."""
    if isinstance(node.child, FullScan):
        return FullScan(node.child.rank + 1)
    return None


def _rw_quantify_exists_empty(node: Quantify, rank) -> Plan | None:
    """``∃∅ → ∅``."""
    if node.kind == EXISTS and isinstance(node.child, Empty):
        return Empty(node.child.rank - 1)
    return None


def _rw_quantify_forall_full(node: Quantify, rank) -> Plan | None:
    """``∀Tⁿ⁺¹ → Tⁿ`` — every extension of every path is in the full
    level, vacuously so for childless paths.  (The duals ``∃Tⁿ⁺¹`` and
    ``∀∅`` need nonemptiness of children and are *not* folded.)"""
    if node.kind == FORALL and isinstance(node.child, FullScan):
        return FullScan(node.child.rank - 1)
    return None


def _rw_exists_union(node: Quantify, rank) -> Plan | None:
    """``∃`` distributes over union."""
    if node.kind == EXISTS and isinstance(node.child, Union):
        return Union(tuple(Quantify(c, EXISTS)
                           for c in node.child.children))
    return None


def _rw_forall_intersect(node: Quantify, rank) -> Plan | None:
    """``∀`` distributes over intersection."""
    if node.kind == FORALL and isinstance(node.child, Intersect):
        return Intersect(tuple(Quantify(c, FORALL)
                               for c in node.child.children))
    return None


def _rw_join_empty(node: Join, rank) -> Plan | None:
    """``∅ × X → ∅`` (either side)."""
    if isinstance(node.left, Empty) or isinstance(node.right, Empty):
        return Empty(rank(node.left) + rank(node.right))
    return None


def _rw_join_full(node: Join, rank) -> Plan | None:
    """``Tᵐ × Tⁿ → Tᵐ⁺ⁿ`` — canonicalized splits always land in their
    levels, so every concatenated-level path qualifies."""
    if isinstance(node.left, FullScan) and isinstance(node.right, FullScan):
        return FullScan(node.left.rank + node.right.rank)
    return None


def _rw_join_ground(node: Join, rank) -> Plan | None:
    """A rank-0 × rank-0 join is an intersection of truth values."""
    if rank(node.left) == 0 and rank(node.right) == 0:
        return Intersect((node.left, node.right))
    return None


def _rw_join_hoist(node: Join, rank) -> Plan | None:
    """Hoist a rank-0 guard out of an Extend-tower join operand:
    ``Join(↑ᵏx₀, B) → Join(x₀, Join(Tᵏ, B))`` (and symmetrically).
    ``↑ᵏx₀`` is the whole level ``Tᵏ`` when the rank-0 core holds and
    ``∅`` otherwise, and a rank-0 left operand joins for free — the
    executor never canonicalizes the tower again."""
    k, core = _peel_extends(node.left)
    if k >= 1 and rank(core) == 0:
        return Join(core, Join(FullScan(k), node.right))
    k, core = _peel_extends(node.right)
    if k >= 1 and rank(core) == 0:
        return Join(core, Join(node.left, FullScan(k)))
    return None


def _rw_union_empty(node: Union, rank) -> Plan | None:
    """Drop ``∅`` members; an all-empty union is ``∅``."""
    kept = tuple(c for c in node.children if not isinstance(c, Empty))
    if len(kept) == len(node.children):
        return None
    if not kept:
        return Empty(rank(node))
    return kept[0] if len(kept) == 1 else Union(kept)


def _rw_union_full(node: Union, rank) -> Plan | None:
    """A union with a universal member is universal."""
    if any(isinstance(c, FullScan) for c in node.children):
        return FullScan(rank(node))
    return None


def _rw_union_complement(node: Union, rank) -> Plan | None:
    """Tautology: ``X ∪ ∁X ∪ … → Tⁿ``."""
    members = set(node.children)
    for c in node.children:
        if isinstance(c, Complement) and c.child in members:
            return FullScan(rank(node))
    return None


def _rw_union_absorb(node: Union, rank) -> Plan | None:
    """Absorption: ``X ∪ (X ∩ Y) → X``."""
    members = set(node.children)
    kept = tuple(
        c for c in node.children
        if not (isinstance(c, Intersect)
                and any(x in members for x in c.children)))
    if len(kept) == len(node.children):
        return None
    return kept[0] if len(kept) == 1 else Union(kept)


def _rw_intersect_full(node: Intersect, rank) -> Plan | None:
    """Drop ``Tⁿ`` members; an all-universal intersection is ``Tⁿ``."""
    kept = tuple(c for c in node.children if not isinstance(c, FullScan))
    if len(kept) == len(node.children):
        return None
    if not kept:
        return FullScan(rank(node))
    return kept[0] if len(kept) == 1 else Intersect(kept)


def _rw_intersect_empty(node: Intersect, rank) -> Plan | None:
    """An intersection with an ``∅`` member is ``∅``."""
    if any(isinstance(c, Empty) for c in node.children):
        return Empty(rank(node))
    return None


def _rw_intersect_complement(node: Intersect, rank) -> Plan | None:
    """Contradiction: ``X ∩ ∁X ∩ … → ∅``."""
    members = set(node.children)
    for c in node.children:
        if isinstance(c, Complement) and c.child in members:
            return Empty(rank(node))
    return None


def _rw_intersect_absorb(node: Intersect, rank) -> Plan | None:
    """Absorption: ``X ∩ (X ∪ Y) → X``."""
    members = set(node.children)
    kept = tuple(
        c for c in node.children
        if not (isinstance(c, Union)
                and any(x in members for x in c.children)))
    if len(kept) == len(node.children):
        return None
    return kept[0] if len(kept) == 1 else Intersect(kept)


def _rw_intersect_filter(node: Intersect, rank) -> Plan | None:
    """Hoist a filter chain over ``Tⁿ`` onto its siblings:
    ``σ…σ(Tⁿ) ∩ X → σ…σ(X)`` — filters are pointwise predicates, so
    intersecting with a filtered full level just filters."""
    if len(node.children) < 2:
        return None
    for idx, child in enumerate(node.children):
        chain, base = _peel_filters(child)
        if chain and isinstance(base, FullScan):
            rest = node.children[:idx] + node.children[idx + 1:]
            out: Plan = rest[0] if len(rest) == 1 else Intersect(rest)
            for spec in reversed(chain):
                out = _refilter(spec, out)
            return out
    return None


# ---------------------------------------------------------------------------
# Registry and driver.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Rule:
    """One named rewrite: ``fn(node, rank) -> Plan | None``, offered
    only to nodes of ``types``."""

    name: str
    types: type | tuple[type, ...]
    fn: object


#: The full rule catalog, in application order (docs/optimizer.md
#: renders the same list as prose with before/after trees).
RULES: tuple[Rule, ...] = (
    Rule("complement-complement", Complement, _rw_complement_complement),
    Rule("complement-empty", Complement, _rw_complement_empty),
    Rule("complement-full", Complement, _rw_complement_full),
    Rule("complement-union", Complement, _rw_complement_union),
    Rule("complement-intersect", Complement, _rw_complement_intersect),
    Rule("complement-quantify", Complement, _rw_complement_quantify),
    Rule("filter-empty", (FilterEq, FilterAtom), _rw_filter_empty),
    Rule("filter-eq-resolve", FilterEq, _rw_filter_eq_resolve),
    Rule("filter-eq-trivial", FilterEq, _rw_filter_eq_trivial),
    Rule("filter-eq-order", FilterEq, _rw_filter_eq_order),
    Rule("filter-eq-atom", FilterEq, _rw_filter_eq_atom),
    Rule("filter-eq-project", FilterEq, _rw_filter_eq_project),
    Rule("project-empty", Project, _rw_project_empty),
    Rule("project-project", Project, _rw_project_project),
    Rule("project-identity", Project, _rw_project_identity),
    Rule("project-prefix", Project, _rw_project_prefix),
    Rule("extend-empty", Extend, _rw_extend_empty),
    Rule("extend-full", Extend, _rw_extend_full),
    Rule("quantify-exists-empty", Quantify, _rw_quantify_exists_empty),
    Rule("quantify-forall-full", Quantify, _rw_quantify_forall_full),
    Rule("exists-union", Quantify, _rw_exists_union),
    Rule("forall-intersect", Quantify, _rw_forall_intersect),
    Rule("join-empty", Join, _rw_join_empty),
    Rule("join-full", Join, _rw_join_full),
    Rule("join-ground", Join, _rw_join_ground),
    Rule("join-hoist", Join, _rw_join_hoist),
    Rule("union-empty", Union, _rw_union_empty),
    Rule("union-full", Union, _rw_union_full),
    Rule("union-complement", Union, _rw_union_complement),
    Rule("union-absorb", Union, _rw_union_absorb),
    Rule("intersect-full", Intersect, _rw_intersect_full),
    Rule("intersect-empty", Intersect, _rw_intersect_empty),
    Rule("intersect-complement", Intersect, _rw_intersect_complement),
    Rule("intersect-absorb", Intersect, _rw_intersect_absorb),
    Rule("intersect-filter", Intersect, _rw_intersect_filter),
)

RULE_NAMES: tuple[str, ...] = tuple(r.name for r in RULES)


def _dispatch(rules: Sequence[Rule]) -> dict[type, tuple[Rule, ...]]:
    """Node class → the rules offered to it, in catalog order."""
    table: dict[type, list[Rule]] = {}
    for rule in rules:
        types = rule.types if isinstance(rule.types, tuple) else (rule.types,)
        for cls in types:
            table.setdefault(cls, []).append(rule)
    return {cls: tuple(entry) for cls, entry in table.items()}


_RULE_TABLE = _dispatch(RULES)


def _map_children(plan: Plan, fn) -> Plan:
    """``plan`` with every direct child mapped through ``fn`` (node
    identity preserved when nothing changed)."""
    if isinstance(plan, LEAVES):
        return plan
    if isinstance(plan, (Union, Intersect)):
        children = tuple(fn(c) for c in plan.children)
        return plan if children == plan.children else type(plan)(children)
    if isinstance(plan, Join):
        left, right = fn(plan.left), fn(plan.right)
        if left is plan.left and right is plan.right:
            return plan
        return Join(left, right)
    child = fn(plan.child)  # type: ignore[attr-defined]
    if child is plan.child:  # type: ignore[attr-defined]
        return plan
    if isinstance(plan, FilterEq):
        return FilterEq(child, plan.i, plan.j)
    if isinstance(plan, FilterAtom):
        return FilterAtom(child, plan.index, plan.positions, plan.negate)
    if isinstance(plan, Project):
        return Project(child, plan.coords)
    if isinstance(plan, Extend):
        return Extend(child)
    if isinstance(plan, Quantify):
        return Quantify(child, plan.kind)
    if isinstance(plan, Complement):
        return Complement(child)
    raise TypeError(f"unknown plan node {plan!r}")


class _Rewriter:
    """The rewrite passes of one :func:`optimize_result` call.

    A pass is a pure function of its input subtree, so it is memoized
    by input node for the whole call: a subtree that an earlier pass
    left in place (normalization keeps unchanged nodes) costs one
    probe.  Each entry holds its node (so the id stays unique), the
    output, and the stretch of :attr:`fired` its rewrites took, which
    a hit appends again, so the tallies stay exact.
    """

    __slots__ = ("table", "rank", "done", "fired")

    def __init__(self, table: dict[type, tuple[Rule, ...]], rank):
        self.table = table
        self.rank = rank
        self.done: dict[int, tuple[Plan, Plan, int, int]] = {}
        #: Names of the rules fired, in order, replays included.
        self.fired: list[str] = []

    def rewrite(self, node: Plan) -> Plan:
        """One bottom-up pass: children first, then local rules to a
        (bounded) local fixpoint."""
        if isinstance(node, LEAVES):
            return node
        entry = self.done.get(id(node))
        if entry is not None:
            __, out, start, end = entry
            self.fired.extend(self.fired[start:end])
            return out
        fired, rank, table = self.fired, self.rank, self.table
        start = len(fired)
        out = _map_children(node, self.rewrite)
        for __ in range(_NODE_ITERATIONS):
            offered = table.get(type(out))
            # Ill-ranked or dynamic (fixpoint below): leave the node
            # exactly as written so execution errors are preserved.
            if offered is None or rank(out) is None:
                break
            for rule in offered:
                new = rule.fn(out, rank)
                if new is not None and new != out:
                    fired.append(rule.name)
                    out = new
                    break
            else:
                break
        self.done[id(node)] = (node, out, start, len(fired))
        return out


@dataclass(frozen=True)
class OptimizeResult:
    """An optimized plan plus the evidence: which rules fired how
    often, and how many whole-tree passes ran."""

    plan: Plan
    rewrites: tuple[tuple[str, int], ...]
    passes: int

    @property
    def total_rewrites(self) -> int:
        """Total rule applications across all passes."""
        return sum(n for __, n in self.rewrites)


def optimize_result(plan: Plan,
                    signature: Sequence[int] | None = None, *,
                    rules: Iterable[str] | None = None,
                    max_passes: int = limits.OPTIMIZER_PASSES,
                    ) -> OptimizeResult:
    """Optimize a plan, reporting per-rule rewrite counts.

    ``rules`` restricts the catalog to the named subset (the property
    tests exercise each rule in isolation this way); unknown names
    raise ``ValueError``.  ``max_passes`` caps the pass loop (see
    ``docs/limits.md``); the loop stops early at the first pass that
    changes nothing, so the cap only bites on pathological plans.
    """
    if rules is None:
        table = _RULE_TABLE
    else:
        wanted = set(rules)
        unknown = wanted - set(RULE_NAMES)
        if unknown:
            raise ValueError(f"unknown optimizer rules: {sorted(unknown)}")
        table = _dispatch([r for r in RULES if r.name in wanted])
    memo = PlanMemo(signature)
    rewriter = _Rewriter(table, memo.rank)
    current = memo.normalize(plan)
    passes = 0
    while passes < max_passes:
        before = current
        current = memo.normalize(rewriter.rewrite(current))
        passes += 1
        if current == before:
            break
    return OptimizeResult(current,
                          tuple(sorted(Counter(rewriter.fired).items())),
                          passes)


def optimize(plan: Plan, signature: Sequence[int] | None = None, *,
             rules: Iterable[str] | None = None,
             max_passes: int = limits.OPTIMIZER_PASSES) -> Plan:
    """The optimized (and normalized) form of ``plan``.

    Semantics-preserving by construction: every rule is exact on
    representative sets (the property battery and the ``optimizer``
    fuzz oracle check this against the interpreted path bit for bit).
    """
    return optimize_result(plan, signature, rules=rules,
                           max_passes=max_passes).plan


# ---------------------------------------------------------------------------
# Cross-batch common-subplan extraction.
# ---------------------------------------------------------------------------

def iter_subplans(plan: Plan):
    """Yield every node of ``plan`` (preorder, with repetitions)."""
    stack = [plan]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, LEAVES):
            continue
        if isinstance(node, (Union, Intersect)):
            stack.extend(node.children)
        elif isinstance(node, Join):
            stack.append(node.left)
            stack.append(node.right)
        else:
            stack.append(node.child)  # type: ignore[attr-defined]


def common_subplans(plans: Sequence[Plan]) -> frozenset[Plan]:
    """Non-leaf subplans occurring at least twice across ``plans``.

    ``Engine.eval_batch`` marks these as materialization points: the
    compiled backend keeps a result-cache boundary at each (instead of
    fusing through it), so a subplan shared by several batch members is
    computed once per batch and probed by the rest — and the probes are
    counted separately (``CacheStats.shared_hits``).
    """
    counts: dict[Plan, int] = {}
    for plan in plans:
        for node in iter_subplans(plan):
            if not isinstance(node, LEAVES):
                counts[node] = counts.get(node, 0) + 1
    return frozenset(p for p, n in counts.items() if n >= 2)
