"""The compile-to-closure execution backend.

:func:`compile_plan` turns a prepared (normalized + optimized) plan
into a tree of nested Python closures, one per *materialization
boundary*, eliminating the interpreter's per-node dispatch on the hot
path and — more importantly — fusing filter chains into single
comprehensions so that cheap coordinate predicates run *before* the
oracle-backed work they guard:

* a chain of :class:`~repro.engine.plan.FilterEq` /
  :class:`~repro.engine.plan.FilterAtom` nodes over a source compiles
  to one pass applying the predicates innermost-first;
* a filter chain over a :class:`~repro.engine.plan.Join` fuses *into*
  the join's level scan: equality predicates prune a candidate path
  before the join pays a single canonicalization for it;
* a join operand that is statically :class:`~repro.engine.plan.
  FullScan` drops its membership test entirely (the canonicalized
  split always lands in the level), and a rank-0 operand becomes a
  constant guard;
* a :class:`~repro.engine.plan.Complement` directly under an
  :class:`~repro.engine.plan.Intersect` becomes a ``p ∉ inner``
  predicate — the complemented level set is never materialized;
* when the *root* is statically rank 0 under an ``∃``-chain, the chain
  consumes its source lazily and stops at the first witness.

**Contract with the interpreted path** (``docs/optimizer.md``): the
compiled backend produces bit-for-bit identical
:class:`~repro.qlhs.interpreter.Value` results, raises the same
rank/signature errors, and keeps a result-cache probe (and a per-node
timing record) at every boundary — every plan node except fused filter
interiors, fused-source scans, and predicate-fused complements — so
cross-query subplan sharing and ``EngineStats`` observability survive
compilation.  Oracle-question *counts* may be lower than interpreted
(that is the point); the answers may not differ.  Fixpoint nodes
delegate to the interpreter under the active budget.  Nodes listed in
``shared`` (the batch common-subplan set) are never fused through:
they keep their boundary so batch members can share the entry.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from ..errors import RankMismatchError
from ..qlhs.interpreter import Value
from .cache import ResultCache
from .plan import (
    EXISTS,
    Complement,
    Empty,
    Extend,
    FilterAtom,
    FilterEq,
    FullScan,
    Intersect,
    Join,
    Plan,
    Project,
    Quantify,
    Scan,
    Union,
    plan_rank,
)

_MISS = object()


@dataclass(frozen=True)
class CompiledPlan:
    """One compiled plan: call :meth:`run` under an active engine
    budget (``Engine.evaluate`` installs it)."""

    plan: Plan
    boundaries: int
    _run: Callable[[], Value]

    def run(self) -> Value:
        """Evaluate to a :class:`~repro.qlhs.interpreter.Value`.

        A fresh per-run memo makes repeated subtrees within the plan
        evaluate once; boundary results go through the engine's shared
        result cache, so runs warm each other and the interpreted path
        alike.
        """
        return self._run()


class _CNode:
    """One compiled boundary: an eagerly-computing closure plus an
    optional lazy path iterator (duplicates allowed; used only for
    nonemptiness early exit)."""

    __slots__ = ("plan", "kind", "compute", "lazy")

    def __init__(self, plan: Plan, compute, lazy=None):
        self.plan = plan
        self.kind = type(plan).__name__
        self.compute = compute
        self.lazy = lazy


def _resolved_eq(spec: FilterEq, n: int) -> tuple[int, int]:
    """Validated, resolved ``FilterEq`` indices (interpreter parity)."""
    i = spec.i if spec.i >= 0 else n + spec.i
    j = spec.j if spec.j >= 0 else n + spec.j
    if not (0 <= i < n and 0 <= j < n):
        raise RankMismatchError(
            f"FilterEq({spec.i}, {spec.j}) out of range for rank {n}")
    return i, j


class _Compiler:
    """Compiles one plan for one engine (db, caches, stats)."""

    def __init__(self, engine, shared: frozenset[Plan]):
        self.engine = engine
        self.db = engine.db
        self.shared = shared
        self.results = engine.cache.results
        self.fingerprint = engine.fingerprint
        self._nodes: dict[Plan, _CNode] = {}
        self._ranks: dict[Plan, int | None] = {}
        self.boundaries = 0

    # -- plumbing ------------------------------------------------------------

    def compile(self, plan: Plan) -> CompiledPlan:
        """Compile ``plan`` into a :class:`CompiledPlan`."""
        root = self._node(plan)
        # The tables share repeated subtrees while compiling; emptied,
        # they leave no cycle from the closures back to this compiler,
        # so a dropped plan is freed at once, not by the cyclic GC.
        self._nodes.clear()
        self._ranks.clear()

        def run() -> Value:
            return self._execute(root, {})

        return CompiledPlan(plan, self.boundaries, run)

    def _static_rank(self, plan: Plan) -> int | None:
        """Static rank via the engine signature, ``None`` if unknown —
        lazy early-exit paths are gated on it (a known static rank
        means the whole subtree rank-checked, so skipping the runtime
        checks cannot hide an error)."""
        rank = self._ranks.get(plan, _MISS)
        if rank is _MISS:
            try:
                rank = plan_rank(plan, self.engine.signature)
            except Exception:  # noqa: BLE001 — dynamic/invalid: no laziness
                rank = None
            self._ranks[plan] = rank
        return rank

    def _execute(self, node: _CNode, memo: dict) -> Value:
        """Run one boundary's closure with interpreter-parity timing
        (exclusive per-node seconds via the engine's per-thread
        stack)."""
        engine = self.engine
        child_time = engine._child_time()
        start = time.perf_counter()
        child_time.append(0.0)
        try:
            value = node.compute(memo)
        finally:
            child_seconds = child_time.pop()
            total = time.perf_counter() - start
            if child_time:
                child_time[-1] += total
            engine._stats.record_node(node.kind,
                                      max(total - child_seconds, 0.0))
        return value

    def _value(self, node: _CNode, memo: dict) -> Value:
        """A boundary's value: per-run memo, then the shared result
        cache (counted as a *shared* probe), then compute-and-fill."""
        value = memo.get(node.plan, _MISS)
        if value is not _MISS:
            return value
        key = ResultCache.key(self.fingerprint, node.plan, ())
        value = self.results.get(key, _MISS, shared=True)
        if value is _MISS:
            value = self._execute(node, memo)
            self.results.put(key, value)
        memo[node.plan] = value
        return value

    def _getter(self, plan: Plan):
        """``memo -> Value`` for a child boundary."""
        node = self._node(plan)
        return lambda memo: self._value(node, memo)

    # -- node dispatch -------------------------------------------------------

    def _node(self, plan: Plan) -> _CNode:
        node = self._nodes.get(plan)
        if node is None:
            node = self._compile_node(plan)
            self._nodes[plan] = node
            self.boundaries += 1
        return node

    def _compile_node(self, plan: Plan) -> _CNode:
        db = self.db
        if isinstance(plan, Scan):
            def compute(memo, plan=plan):
                if not 0 <= plan.index < db.k:
                    from ..errors import TypeSignatureError
                    raise TypeSignatureError(
                        f"Scan({plan.index}) out of range for type "
                        f"{db.signature}")
                return Value(db.signature[plan.index],
                             db.representatives[plan.index])
            return _CNode(plan, compute)
        if isinstance(plan, FullScan):
            rank = plan.rank
            return _CNode(
                plan,
                lambda memo: Value(rank, frozenset(db.tree.level(rank))),
                lambda memo: iter(db.tree.level(rank)))
        if isinstance(plan, Empty):
            rank = plan.rank
            return _CNode(plan, lambda memo: Value(rank, frozenset()),
                          lambda memo: iter(()))
        if isinstance(plan, (FilterEq, FilterAtom)):
            return self._compile_chain(plan)
        if isinstance(plan, Join):
            return self._compile_join(plan, [])
        if isinstance(plan, Project):
            return self._compile_project(plan)
        if isinstance(plan, Extend):
            return self._compile_extend(plan)
        if isinstance(plan, Quantify):
            return self._compile_quantify(plan)
        if isinstance(plan, Union):
            return self._compile_union(plan)
        if isinstance(plan, Intersect):
            return self._compile_intersect(plan)
        if isinstance(plan, Complement):
            return self._compile_complement(plan)
        # Fixpoints (and anything unknown / mis-typed, e.g. an
        # FcfFixpoint reaching an hs engine): delegate to the
        # interpreter's node semantics — same errors, same budget.
        engine = self.engine
        return _CNode(plan,
                      lambda memo, plan=plan: engine._execute_node(plan))

    # -- fused filter chains -------------------------------------------------

    def _peel_chain(self, plan: Plan) -> tuple[list[Plan], Plan]:
        """The fusable filter chain at ``plan`` (outermost first) and
        its base; peeling stops at batch-shared interior nodes."""
        specs = [plan]
        cursor = plan.child  # type: ignore[attr-defined]
        while (isinstance(cursor, (FilterEq, FilterAtom))
               and cursor not in self.shared):
            specs.append(cursor)
            cursor = cursor.child
        return specs, cursor

    def _predicates(self, specs: list[Plan], n: int) -> list:
        """Validated predicate closures, innermost-first (interpreter
        evaluates the innermost filter first, so validation errors
        surface in the same order)."""
        db = self.db
        preds = []
        for spec in reversed(specs):
            if isinstance(spec, FilterEq):
                i, j = _resolved_eq(spec, n)
                preds.append(lambda p, i=i, j=j: p[i] == p[j])
            else:
                if any(not 0 <= c < n for c in spec.positions):
                    raise RankMismatchError(
                        f"FilterAtom positions {spec.positions} out of "
                        f"range for rank {n}")
                preds.append(
                    lambda p, s=spec: db.contains(
                        s.index,
                        tuple(p[c] for c in s.positions)) != s.negate)
        return preds

    def _compile_chain(self, plan: Plan) -> _CNode:
        specs, base = self._peel_chain(plan)
        if isinstance(base, Join) and base not in self.shared:
            return self._compile_join(plan, specs, join=base)
        if isinstance(base, FullScan):
            db, rank = self.db, base.rank

            def compute(memo, specs=specs, rank=rank):
                preds = self._predicates(specs, rank)
                return Value(rank, frozenset(
                    p for p in db.tree.level(rank)
                    if all(f(p) for f in preds)))

            def lazy(memo, specs=specs, rank=rank):
                preds = self._predicates(specs, rank)
                return (p for p in db.tree.level(rank)
                        if all(f(p) for f in preds))

            return _CNode(plan, compute, lazy)

        get = self._getter(base)

        def compute(memo, specs=specs):
            body = get(memo)
            preds = self._predicates(specs, body.rank)
            return Value(body.rank, frozenset(
                p for p in body.paths if all(f(p) for f in preds)))

        def lazy(memo, specs=specs):
            body = get(memo)
            preds = self._predicates(specs, body.rank)
            return (p for p in body.paths if all(f(p) for f in preds))

        return _CNode(plan, compute, lazy)

    # -- joins (with fused outer filters and nested-join flattening) ---------

    def _join_operands(self, join: Join, out: list[Plan]) -> None:
        """Flatten a (non-shared) nested-join tree into its operand
        sequence, left to right — one level scan instead of one
        materialization per join node, so outer filters prune
        candidates before *any* inner operand pays a
        canonicalization."""
        for side in (join.left, join.right):
            if isinstance(side, Join) and side not in self.shared:
                self._join_operands(side, out)
            else:
                out.append(side)

    def _compile_join(self, plan: Plan, specs: list[Plan],
                      join: Join | None = None) -> _CNode:
        join = join if join is not None else plan  # type: ignore[assignment]
        db = self.db
        operands: list[Plan] = []
        self._join_operands(join, operands)
        # A FullScan operand needs no membership test at all: the
        # canonicalized split of a level path is always in its level.
        getters = [None if isinstance(op, FullScan) else self._getter(op)
                   for op in operands]
        fs_ranks = [op.rank if isinstance(op, FullScan) else None
                    for op in operands]

        def scan(memo):
            """The fused candidate stream: (total_rank, iterator)."""
            segments = []  # (start, width, paths | None)
            offset = 0
            empty = False
            for get, fs_rank in zip(getters, fs_ranks):
                if get is None:
                    segments.append((offset, fs_rank, None))
                    offset += fs_rank
                    continue
                value = get(memo)
                if value.rank == 0:
                    # A rank-0 operand is a constant guard on the
                    # whole join, not a per-path test.
                    if () not in value.paths:
                        empty = True
                else:
                    segments.append((offset, value.rank, value.paths))
                    offset += value.rank
            total = offset
            if empty:
                return total, iter(())
            preds = self._predicates(specs, total) if specs else ()
            # Membership tests ordered cheap-first: the leading
            # segment of a path is itself a path (already canonical,
            # zero oracle questions); every later segment pays one
            # canonicalization per surviving candidate.
            tests = [(s, w, p) for s, w, p in segments if p is not None]
            tests.sort(key=lambda t: t[0] != 0)
            canon = db.canonical_representative

            def stream():
                for r in db.tree.level(total):
                    if preds and not all(f(r) for f in preds):
                        continue
                    for start, width, paths in tests:
                        part = r[start:start + width]
                        piece = part if start == 0 else canon(part)
                        if piece not in paths:
                            break
                    else:
                        yield r
            return total, stream()

        def compute(memo):
            total, stream = scan(memo)
            return Value(total, frozenset(stream))

        def lazy(memo):
            return scan(memo)[1]

        return _CNode(plan, compute, lazy)

    # -- the remaining node kinds --------------------------------------------

    def _compile_project(self, plan: Project) -> _CNode:
        db, get = self.db, self._getter(plan.child)

        def compute(memo, plan=plan):
            body = get(memo)
            if any(not 0 <= c < body.rank for c in plan.coords):
                raise RankMismatchError(
                    f"Project coords {plan.coords} out of range for "
                    f"rank {body.rank}")
            return Value(len(plan.coords), frozenset(
                db.canonical_representative(
                    tuple(p[c] for c in plan.coords))
                for p in body.paths))

        return _CNode(plan, compute)

    def _compile_extend(self, plan: Extend) -> _CNode:
        db, get = self.db, self._getter(plan.child)

        def compute(memo):
            body = get(memo)
            return Value(body.rank + 1, frozenset(
                p + (a,) for p in body.paths
                for a in db.tree.children(p)))

        def lazy(memo):
            body = get(memo)
            return (p + (a,) for p in body.paths
                    for a in db.tree.children(p))

        return _CNode(plan, compute, lazy)

    def _compile_quantify(self, plan: Quantify) -> _CNode:
        db = self.db
        child_node = self._node(plan.child)
        get = lambda memo: self._value(child_node, memo)  # noqa: E731

        if plan.kind == EXISTS:
            if (self._static_rank(plan) == 0
                    and child_node.lazy is not None):
                # A rank-0 ∃ is nonemptiness of its (statically
                # rank-checked) source: consume it lazily and stop at
                # the first witness — the child is never materialized.
                def compute(memo):
                    witness = any(True for __ in child_node.lazy(memo))
                    return Value(0, frozenset([()]) if witness
                                 else frozenset())
                return _CNode(plan, compute)

            def compute(memo):
                body = get(memo)
                if body.rank == 0:
                    raise RankMismatchError("Quantify needs rank >= 1")
                return Value(body.rank - 1,
                             frozenset(p[:-1] for p in body.paths))

            lazy = None
            if (self._static_rank(plan) is not None
                    and child_node.lazy is not None):
                def lazy(memo):  # noqa: F811 — deliberate rebind
                    return (p[:-1] for p in child_node.lazy(memo))
            return _CNode(plan, compute, lazy)

        def compute(memo):
            body = get(memo)
            if body.rank == 0:
                raise RankMismatchError("Quantify needs rank >= 1")
            rank = body.rank - 1
            paths = body.paths
            return Value(rank, frozenset(
                p for p in db.tree.level(rank)
                if all(p + (a,) in paths
                       for a in db.tree.children(p))))

        return _CNode(plan, compute)

    def _compile_union(self, plan: Union) -> _CNode:
        nodes = [self._node(c) for c in plan.children]

        def compute(memo):
            parts = [self._value(n, memo) for n in nodes]
            rank = _common_rank(parts, "Union")
            return Value(rank,
                         frozenset().union(*(v.paths for v in parts)))

        lazy = None
        if (self._static_rank(plan) is not None
                and all(n.lazy is not None for n in nodes)):
            def lazy(memo):  # noqa: F811 — deliberate rebind
                for node in nodes:
                    yield from node.lazy(memo)
        return _CNode(plan, compute, lazy)

    def _compile_intersect(self, plan: Intersect) -> _CNode:
        db = self.db
        positive: list[_CNode] = []
        negative: list[_CNode] = []  # fused ∁ children: test p ∉ inner
        for child in plan.children:
            if isinstance(child, Complement) and child not in self.shared:
                negative.append(self._node(child.child))
            else:
                positive.append(self._node(child))

        def compute(memo):
            pos = [self._value(n, memo) for n in positive]
            neg = [self._value(n, memo) for n in negative]
            rank = _common_rank(pos + neg, "Intersect")
            if pos:
                paths = set(pos[0].paths)
                for v in pos[1:]:
                    paths &= v.paths
            else:
                paths = set(db.tree.level(rank))
            for v in neg:
                paths -= v.paths
            return Value(rank, frozenset(paths))

        return _CNode(plan, compute)

    def _compile_complement(self, plan: Complement) -> _CNode:
        db, get = self.db, self._getter(plan.child)

        def compute(memo):
            body = get(memo)
            level = frozenset(db.tree.level(body.rank))
            return Value(body.rank, level - body.paths)

        return _CNode(plan, compute)


def _common_rank(parts, what: str) -> int:
    """Interpreter-parity common-rank check."""
    if not parts:
        raise RankMismatchError(f"{what} needs at least one child")
    ranks = {v.rank for v in parts}
    if len(ranks) != 1:
        raise RankMismatchError(
            f"{what} over mixed ranks {sorted(ranks)}")
    return ranks.pop()


def compile_plan(engine, plan: Plan,
                 shared: frozenset[Plan] = frozenset()) -> CompiledPlan:
    """Compile a prepared plan for ``engine``.

    ``shared`` lists subplans that must keep a result-cache boundary
    (``Engine.eval_batch`` passes the cross-batch common-subplan set).
    The returned object is immutable and thread-safe to :meth:`~
    CompiledPlan.run` concurrently.
    """
    return _Compiler(engine, shared).compile(plan)
