"""Seeded random generators for databases and well-typed queries.

The paper's completeness theorems are *equivalence claims* between
query languages, so the strongest executable evidence is continuous
cross-language differential testing on **randomized** inputs rather
than a fixed corpus.  This module supplies the randomness, all of it
funneled through one :class:`random.Random` so a run is reproducible
from its seed:

* random *finite/co-finite* databases (:class:`FcfSpec`) — the cheapest
  family that is simultaneously an fcf-r-db and, through
  :meth:`~repro.fcf.database.FcfDatabase.to_hsdb`, an hs-r-db
  (Proposition 4.1), so one random database exercises every frontend;
* the four built-in highly symmetric databases (``clique``, ``rado``,
  ``triangles``, ``k3k2``) for genuinely infinite structure;
* well-typed random FO formulas (closed or with a fixed free-variable
  order) over a signature, and well-typed core QLhs terms/programs
  generated *rank-directed* so every draw type-checks.

Every generated query round-trips through the concrete syntax
(:func:`repro.logic.printer.to_text`,
:func:`repro.qlhs.printer.term_to_text` /
``program_to_text``), which is what makes :class:`Case` a small,
serializable, reproducible object — the golden tests pin exact
fixed-seed outputs, and shrunk counterexamples are emitted as plain
text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache

from ..fcf.database import FcfDatabase
from ..fcf.relation import FcfValue
from ..logic import syntax as fo
from ..qlhs import ast as q

#: Builders of the built-in hs-r-dbs the checker draws from.
BUILTIN_HSDBS = ("clique", "k3k2", "triangles", "rado")

#: Largest constant used in random fcf databases: ``|Df| <= 8``, which
#: the backtracking ``Aut(Df)`` search keeps cheap.
MAX_CONSTANT = 7

#: Largest term/plan rank the generators emit (tree levels grow fast).
MAX_RANK = 3

#: Probe tuples per rank for pointwise membership comparisons.
PROBES = {
    0: [()],
    1: [(x,) for x in (0, 1, 2, 3, 5, 7, 9)],
    2: [(x, y) for x in (0, 1, 2, 3) for y in (0, 1, 2, 3)]
    + [(4, 7), (7, 0), (6, 6), (9, 9)],
    3: [(0, 1, 2), (1, 1, 2), (2, 2, 2), (0, 1, 9), (5, 6, 7), (9, 9, 9)],
}


@lru_cache(maxsize=None)
def builtin_hsdb(name: str):
    """Build (once) a built-in hs-r-db by CLI name."""
    from ..graphs import mixed_components_hsdb, triangles_hsdb
    from ..symmetric import infinite_clique, rado_hsdb

    builders = {
        "clique": infinite_clique,
        "rado": rado_hsdb,
        "triangles": triangles_hsdb,
        "k3k2": mixed_components_hsdb,
    }
    return builders[name]()


# ---------------------------------------------------------------------------
# Random fcf databases.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FcfSpec:
    """A serializable description of a random finite/co-finite database.

    ``relations`` lists ``(rank, tuples, cofinite)`` triples —
    ``tuples`` is the finite part (the relation itself, or its
    complement when ``cofinite``).  The spec is hashable and
    deterministic to print, so shrunk counterexamples embed it
    verbatim in their reproducer files.
    """

    relations: tuple[tuple[int, tuple[tuple[int, ...], ...], bool], ...]
    name: str = "fuzz"

    @property
    def signature(self) -> tuple[int, ...]:
        """The database type (relation ranks)."""
        return tuple(rank for rank, __, __ in self.relations)

    @property
    def tuple_count(self) -> int:
        """Total stored tuples — the shrinker's database size metric."""
        return sum(len(tuples) for __, tuples, __ in self.relations)

    def build(self) -> FcfDatabase:
        """Materialize the described :class:`FcfDatabase`."""
        values = [FcfValue(rank, frozenset(tuples), cofinite=cof)
                  for rank, tuples, cof in self.relations]
        return FcfDatabase(values, name=self.name)

    def to_source(self) -> str:
        """A Python expression reconstructing this spec (reproducers)."""
        rows = ", ".join(
            f"({rank}, {tuple(sorted(tuples))!r}, {cof!r})"
            for rank, tuples, cof in self.relations)
        return f"FcfSpec(({rows},), name={self.name!r})"

    def without_tuple(self, rel: int, t: tuple) -> "FcfSpec":
        """A copy with one stored tuple removed (a shrink step)."""
        rows = []
        for i, (rank, tuples, cof) in enumerate(self.relations):
            if i == rel:
                tuples = tuple(u for u in tuples if u != t)
            rows.append((rank, tuples, cof))
        return FcfSpec(tuple(rows), name=self.name)

    def as_finite(self, rel: int) -> "FcfSpec":
        """A copy with one relation's co-finite flag dropped (a
        monotone shrink step: finite relations are the simpler shape)."""
        rows = []
        for i, (rank, tuples, cof) in enumerate(self.relations):
            rows.append((rank, tuples, cof and i != rel))
        return FcfSpec(tuple(rows), name=self.name)


def gen_signature(rng: random.Random) -> tuple[int, ...]:
    """A small random database type: 1–2 relations of arity 1–2."""
    k = rng.choice((1, 1, 2))
    return tuple(rng.choice((1, 2, 2)) for __ in range(k))


def gen_fcf_spec(rng: random.Random,
                 signature: tuple[int, ...] | None = None,
                 max_tuples: int = 4) -> FcfSpec:
    """A random :class:`FcfSpec` with constants ``<= MAX_CONSTANT``."""
    if signature is None:
        signature = gen_signature(rng)
    rows = []
    for rank in signature:
        count = rng.randrange(max_tuples + 1)
        pool = set()
        for __ in range(count):
            pool.add(tuple(rng.randrange(MAX_CONSTANT + 1)
                           for __ in range(rank)))
        cofinite = rng.random() < 0.25
        rows.append((rank, tuple(sorted(pool)), cofinite))
    return FcfSpec(tuple(rows))


def gen_permutation(rng: random.Random, size: int = 8) -> tuple[int, ...]:
    """A random permutation of ``range(size)`` (finite support on ℕ).

    Used by the genericity oracle: queries are constant-free, so a
    domain permutation must not change any answer pattern.
    """
    perm = list(range(size))
    rng.shuffle(perm)
    return tuple(perm)


def permute_fcf_spec(spec: FcfSpec, perm: tuple[int, ...]) -> FcfSpec:
    """Apply a domain permutation to every stored tuple of the spec."""
    def sigma(x: int) -> int:
        return perm[x] if 0 <= x < len(perm) else x

    rows = []
    for rank, tuples, cof in spec.relations:
        rows.append((rank,
                     tuple(sorted(tuple(sigma(x) for x in t)
                                  for t in tuples)),
                     cof))
    return FcfSpec(tuple(rows), name=f"{spec.name}σ")


def permute_tuple(t: tuple, perm: tuple[int, ...]) -> tuple:
    """Apply the permutation pointwise to one probe tuple."""
    return tuple(perm[x] if 0 <= x < len(perm) else x for x in t)


# ---------------------------------------------------------------------------
# Random FO formulas.
# ---------------------------------------------------------------------------

def gen_formula(rng: random.Random, signature: tuple[int, ...],
                scope: tuple[fo.Var, ...] = (), depth: int = 3,
                quantifiers: int = 2) -> fo.Formula:
    """A random well-typed formula with free variables among ``scope``.

    ``depth`` bounds the connective depth and ``quantifiers`` the
    remaining quantifier budget (relativized evaluation cost grows with
    the quantifier prefix, so the checker keeps it small).  With an
    empty scope the generator strongly prefers opening with a
    quantifier, so sentences are rarely just constants.
    """
    can_quantify = quantifiers > 0 and depth > 0
    if not scope:
        if not can_quantify:
            return fo.TRUE if rng.random() < 0.5 else fo.FALSE
        return _gen_quantifier(rng, signature, scope, depth, quantifiers)

    if depth <= 0:
        return _gen_atom(rng, signature, scope)

    roll = rng.random()
    if can_quantify and roll < 0.3:
        return _gen_quantifier(rng, signature, scope, depth, quantifiers)
    if roll < 0.45:
        return fo.Not(gen_formula(rng, signature, scope, depth - 1,
                                  quantifiers))
    if roll < 0.65:
        ctor = fo.And if rng.random() < 0.5 else fo.Or
        return ctor([gen_formula(rng, signature, scope, depth - 1,
                                 quantifiers),
                     gen_formula(rng, signature, scope, depth - 1,
                                 quantifiers)])
    if roll < 0.72:
        return fo.Implies(gen_formula(rng, signature, scope, depth - 1,
                                      quantifiers),
                          gen_formula(rng, signature, scope, depth - 1,
                                      quantifiers))
    return _gen_atom(rng, signature, scope)


def _gen_quantifier(rng: random.Random, signature: tuple[int, ...],
                    scope: tuple[fo.Var, ...], depth: int,
                    quantifiers: int) -> fo.Formula:
    """One quantifier node with a fresh canonical variable name."""
    var = fo.Var(f"x{len(scope) + 1}")
    body = gen_formula(rng, signature, scope + (var,), depth - 1,
                       quantifiers - 1)
    ctor = fo.Exists if rng.random() < 0.5 else fo.Forall
    return ctor(var, body)


def _gen_atom(rng: random.Random, signature: tuple[int, ...],
              scope: tuple[fo.Var, ...]) -> fo.Formula:
    """A relational or equality atom over in-scope variables."""
    if len(scope) >= 2 and rng.random() < 0.3:
        a, b = rng.choice(scope), rng.choice(scope)
        atom: fo.Formula = fo.Eq(a, b)
    else:
        index = rng.randrange(len(signature))
        args = tuple(rng.choice(scope)
                     for __ in range(signature[index]))
        atom = fo.RelAtom(index, args)
    return fo.Not(atom) if rng.random() < 0.3 else atom


def gen_sentence(rng: random.Random, signature: tuple[int, ...],
                 depth: int = 4, quantifiers: int = 2) -> fo.Formula:
    """A random closed formula (no free variables)."""
    return gen_formula(rng, signature, (), depth, quantifiers)


# ---------------------------------------------------------------------------
# Random core QLhs terms and programs (rank-directed).
# ---------------------------------------------------------------------------

def canonical_term_of_rank(rank: int, signature: tuple[int, ...],
                           allow_e: bool = True,
                           allow_up: bool = True) -> q.Term:
    """The smallest core term of the requested rank over ``signature``.

    Chains ``↑``/``↓`` from the nearest relation symbol (or ``E``).
    Used as the generator's base case and as the shrinker's minimal
    rank-preserving replacement.  With ``allow_up=False`` only ``↓``
    chains are used (the rank must then be reachable from some symbol).
    """
    bases: list[tuple[int, q.Term]] = [
        (arity, q.Rel(i)) for i, arity in enumerate(signature)]
    if allow_e:
        bases.append((2, q.E()))
    if not allow_up:
        high = [pair for pair in bases if pair[0] >= rank]
        bases = high or bases  # fall back to ↑ when unreachable by ↓
    base_rank, term = min(bases,
                          key=lambda pair: (abs(pair[0] - rank), pair[0]))
    while base_rank > rank:
        term = q.Down(term)
        base_rank -= 1
    while base_rank < rank:
        term = q.Up(term)
        base_rank += 1
    return term


def max_reachable_rank(signature: tuple[int, ...],
                       allow_e: bool = True,
                       allow_up: bool = True) -> int:
    """The largest static rank the term generator can reach.

    With ``↑`` available every rank up to :data:`MAX_RANK` is
    reachable; without it, only ranks at or below the largest symbol
    arity (``2`` counts when ``E`` is allowed).
    """
    if allow_up:
        return MAX_RANK
    return max(signature + ((2,) if allow_e else ()))


def gen_term(rng: random.Random, signature: tuple[int, ...], rank: int,
             depth: int = 3, allow_e: bool = True,
             allow_up: bool = True) -> q.Term:
    """A random core QLhs term of exactly the requested rank.

    Only core operators are drawn (``E``, ``Relᵢ``, ``∩``, ``¬``,
    ``↑``, ``↓``, ``~``), so every generated term is interpretable by
    QLhs *and* QLf+ (Section 4 shares the core syntax) and lowers
    structurally into the plan IR.  Ranks stay within
    :data:`MAX_RANK`.

    ``allow_e``/``allow_up`` exclude the two *Df-relative* operators of
    QLf+ (``E = {(a,a) : a ∈ Df}`` and ``e↑ = e × Df``, §4) — the
    documented frontend divergences — so a term meant for qlf-vs-qlhs
    comparison denotes the same relation under both semantics.
    """
    ceiling = min(MAX_RANK, max_reachable_rank(signature, allow_e,
                                               allow_up))
    if depth <= 0:
        leaves = [q.Rel(i) for i, a in enumerate(signature) if a == rank]
        if rank == 2 and allow_e:
            leaves.append(q.E())
        if leaves:
            return rng.choice(leaves)
        return canonical_term_of_rank(rank, signature, allow_e, allow_up)

    options = ["comp", "inter"]
    if rank >= 1 and allow_up:
        options.append("up")
    if rank + 1 <= ceiling:
        options.append("down")
    if rank >= 2:
        options.append("swap")
    options.append("leaf")
    choice = rng.choice(options)
    if choice == "leaf":
        return gen_term(rng, signature, rank, 0, allow_e, allow_up)
    if choice == "comp":
        return q.Comp(gen_term(rng, signature, rank, depth - 1, allow_e,
                               allow_up))
    if choice == "inter":
        return q.Inter(gen_term(rng, signature, rank, depth - 1, allow_e,
                                allow_up),
                       gen_term(rng, signature, rank, depth - 1, allow_e,
                                allow_up))
    if choice == "up":
        return q.Up(gen_term(rng, signature, rank - 1, depth - 1,
                             allow_e, allow_up))
    if choice == "down":
        return q.Down(gen_term(rng, signature, rank + 1, depth - 1,
                               allow_e, allow_up))
    return q.Swap(gen_term(rng, signature, rank, depth - 1, allow_e,
                           allow_up))


def gen_program(rng: random.Random, signature: tuple[int, ...],
                rank: int, allow_e: bool = True,
                allow_up: bool = True,
                allow_loops: bool = True) -> q.Program:
    """A random QLhs/QLf+ program leaving its answer in ``Y1``.

    Mostly straight-line assignments (occasionally staged through
    ``Y3``); with small probability a terminating ``while |Y|=0`` loop,
    and — rarely — a *diverging* loop, which exercises the three-valued
    ``UNKNOWN`` discipline of every oracle.

    ``Y2`` is never assigned: QLf+'s output convention (§4) reads
    ``Y2 ∋ ()`` as "the ``Y1`` answer is co-finite", so ``Y2`` is a
    reserved name, not a scratch variable.
    """
    stmts: list[q.Program] = []
    roll = rng.random()
    if roll < 0.3:
        helper = gen_term(rng, signature, rank, 2, allow_e, allow_up)
        stmts.append(q.Assign("Y3", helper))
        stmts.append(q.Assign("Y1", q.Comp(q.VarT("Y3"))))
    else:
        stmts.append(q.Assign("Y1", gen_term(rng, signature, rank, 3,
                                             allow_e, allow_up)))
    if allow_loops and rng.random() < 0.10:
        # Terminating idiom: the body makes Y4 nonempty on iteration 1.
        stmts.append(q.WhileEmpty("Y4", q.Assign("Y4",
                                                 q.Comp(q.VarT("Y4")))))
    if allow_loops and rng.random() < 0.02:
        # Diverging on purpose: |Y5| never changes — budget trips.
        stmts.append(q.WhileEmpty("Y5", q.Assign("Y6",
                                                 q.Comp(q.VarT("Y6")))))
    return q.seq(*stmts)


# ---------------------------------------------------------------------------
# Cases: one (database, query) pair with its applicable frontends.
# ---------------------------------------------------------------------------

#: Case kinds, with generation weights (fcf kinds dominate: they are
#: cheap and exercise every frontend through the Prop 4.1 bridge).
KIND_WEIGHTS = (
    ("fo-hs", 3),        # FO sentence over a built-in hs-r-db
    ("fo-open-hs", 2),   # open FO formula (one free var) over a built-in
    ("fo-fcf", 3),       # FO sentence over a random fcf db's hs view
    ("term-fcf", 5),     # core term over a random fcf db (qlf vs qlhs)
    ("program-fcf", 3),  # core program over a random fcf db
)


@dataclass(frozen=True)
class Case:
    """One generated (database, query) pair.

    Everything is stored in concrete syntax / serializable specs so a
    case can be re-built, shrunk, JSON-reported, and emitted as a
    standalone reproducer.
    """

    index: int
    kind: str
    db: str                         # builtin name or "fcf"
    query: str                      # formula / term / program text
    query_kind: str                 # "formula" | "term" | "program"
    fcf: FcfSpec | None = None
    variables: tuple[str, ...] = ()
    rank: int = 0
    gmhs: bool = False
    probes: tuple[tuple, ...] = field(default=(), repr=False)
    salt: int = 0                   # per-case oracle randomness seed

    @property
    def signature(self) -> tuple[int, ...]:
        """The database type this case's query is typed against."""
        if self.fcf is not None:
            return self.fcf.signature
        return builtin_hsdb(self.db).signature

    def parse_query(self):
        """The query AST (formula, term, or program)."""
        if self.query_kind == "formula":
            from ..logic.parser import parse
            return parse(self.query)
        if self.query_kind == "term":
            from ..qlhs.parser import parse_term
            return parse_term(self.query)
        from ..qlhs.parser import parse_program
        return parse_program(self.query)

    def describe(self) -> str:
        """One-line human description (reports, reproducers)."""
        where = self.db if self.fcf is None else (
            f"fcf{self.fcf.signature}")
        return f"[{self.kind}] {self.query!r} over {where}"


def gen_case(rng: random.Random, index: int, *,
             gmhs_every: int = 50) -> Case:
    """Generate case number ``index`` (deterministic given the rng).

    Every ``gmhs_every``-th ``fo-hs`` case also routes through the
    (expensive) GMhs pipeline, keeping Theorem 5.1 in the differential
    loop without dominating the wall-clock.
    """
    from ..logic.printer import to_text
    from ..qlhs.printer import program_to_text, term_to_text

    kinds = [k for k, w in KIND_WEIGHTS for __ in range(w)]
    kind = rng.choice(kinds)
    salt = rng.randrange(2**32)

    if kind == "fo-hs":
        db = rng.choice(BUILTIN_HSDBS)
        sentence = gen_sentence(rng, (2,), depth=4,
                                quantifiers=3 if db != "rado" else 2)
        use_gmhs = (gmhs_every > 0 and index % gmhs_every == 0
                    and db in ("clique", "k3k2"))
        return Case(index, kind, db, to_text(sentence), "formula",
                    gmhs=use_gmhs, salt=salt)
    if kind == "fo-open-hs":
        db = rng.choice(("clique", "k3k2", "triangles"))
        var = fo.Var("x1")
        formula = gen_formula(rng, (2,), (var,), depth=3, quantifiers=2)
        return Case(index, kind, db, to_text(formula), "formula",
                    variables=("x1",), rank=1,
                    probes=tuple(PROBES[1]), salt=salt)
    if kind == "fo-fcf":
        spec = gen_fcf_spec(rng)
        sentence = gen_sentence(rng, spec.signature, depth=3,
                                quantifiers=2)
        return Case(index, kind, "fcf", to_text(sentence), "formula",
                    fcf=spec, salt=salt)
    if kind == "term-fcf":
        spec = gen_fcf_spec(rng)
        # E and ↑ are excluded: both are Df-relative in QLf+ by design
        # (§4: E = {(a,a) : a ∈ Df}, e↑ = e × Df) — the documented
        # frontend divergences qlf-vs-qlhs comparison must avoid.
        ceiling = max_reachable_rank(spec.signature, allow_e=False,
                                     allow_up=False)
        rank = rng.choice([r for r in (0, 1, 1, 2) if r <= ceiling])
        term = gen_term(rng, spec.signature, rank, depth=3,
                        allow_e=False, allow_up=False)
        return Case(index, kind, "fcf", term_to_text(term), "term",
                    fcf=spec, rank=rank, probes=tuple(PROBES[rank]),
                    salt=salt)
    spec = gen_fcf_spec(rng)
    ceiling = max_reachable_rank(spec.signature, allow_e=False,
                                 allow_up=False)
    rank = rng.choice([r for r in (0, 1, 2) if r <= ceiling])
    program = gen_program(rng, spec.signature, rank, allow_e=False,
                          allow_up=False)
    return Case(index, kind, "fcf", program_to_text(program), "program",
                fcf=spec, rank=rank, probes=tuple(PROBES[rank]),
                salt=salt)
