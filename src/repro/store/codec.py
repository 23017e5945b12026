"""Structural JSON codecs for plans, values, and verdicts.

The persistence layer (:mod:`repro.store.backend`) needs every part of
a result-cache entry — ``(database fingerprint, prepared plan, args)``
keys and the evaluated values — as durable, cross-process data.  The
fingerprint is already a hex digest; this module supplies the rest:

* **plans** — the engine's plan IR is a tree of frozen dataclasses
  (:mod:`repro.engine.plan`), and the QLhs programs carried by
  :class:`~repro.engine.plan.Fixpoint` / :class:`~repro.engine.plan.
  FcfFixpoint` nodes are frozen dataclass trees too
  (:mod:`repro.qlhs.ast`) — so both serialize *structurally*, node by
  node.  The QLhs printer cannot round-trip the intrinsics
  (``Permute``/``SelectEq`` have no concrete syntax), which is why the
  codec walks the AST instead of printing it.
  :class:`~repro.engine.plan.MachineFixpoint` carries a live Python
  callable and is declared unserializable
  (:class:`UnserializablePlanError`) — its cache entries are scoped to
  the process by design and simply skipped by snapshots.
* **values** — the three result representations the engine produces:
  :class:`~repro.qlhs.interpreter.Value` (rank + frozen path set),
  :class:`~repro.fcf.relation.FcfValue` (rank + tuple set + co-finite
  flag), and plain ``bool`` (membership answers).  Labels go through
  the :func:`~repro.symmetric.serialize.encode_label` codec the
  snapshot format already uses.
* **verdicts** — ``(status, reason, steps)`` triples
  (:mod:`repro.engine.verdict`), the unit of UNKNOWN replay.

:func:`plan_hash` is the durable plan identity: a SHA-256 digest of the
canonical JSON text.  Python's built-in ``hash()`` is salted per
process and therefore useless as a sqlite key; the content hash is
stable across processes, interpreter versions, and restarts, which is
exactly what a shared memo needs.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from ..engine.plan import (
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
    Project,
    Quantify,
    Scan,
    Union,
)
from ..engine.verdict import Verdict
from ..errors import RepresentationError
from ..fcf.relation import FcfValue
from ..qlhs import ast
from ..qlhs.interpreter import Value
from ..symmetric.serialize import decode_label, encode_label

#: Version tag stamped into every serialized plan/value; bump on any
#: incompatible codec change so stale stores fail loudly, not subtly.
CODEC_VERSION = 1


class StoreCodecError(RepresentationError):
    """Data that this codec cannot (de)serialize."""


class UnserializablePlanError(StoreCodecError):
    """A plan whose payload is process-local (a live Python callable).

    :class:`~repro.engine.plan.MachineFixpoint` hashes by callable
    identity — the documented bound on its cache reuse — so persisting
    its entries would be unsound, not merely inconvenient.  Snapshots
    catch this error and count the entry as skipped.
    """


# ---------------------------------------------------------------------------
# QLhs terms and programs.
# ---------------------------------------------------------------------------

def term_to_json(term: ast.Term) -> Any:
    """One QLhs term as JSON-safe structural data."""
    if isinstance(term, ast.E):
        return {"k": "E"}
    if isinstance(term, ast.Rel):
        return {"k": "Rel", "index": term.index}
    if isinstance(term, ast.VarT):
        return {"k": "Var", "name": term.name}
    if isinstance(term, ast.Inter):
        return {"k": "Inter", "left": term_to_json(term.left),
                "right": term_to_json(term.right)}
    if isinstance(term, ast.Comp):
        return {"k": "Comp", "body": term_to_json(term.body)}
    if isinstance(term, ast.Up):
        return {"k": "Up", "body": term_to_json(term.body)}
    if isinstance(term, ast.Down):
        return {"k": "Down", "body": term_to_json(term.body)}
    if isinstance(term, ast.Swap):
        return {"k": "Swap", "body": term_to_json(term.body)}
    if isinstance(term, ast.Product):
        return {"k": "Product", "left": term_to_json(term.left),
                "right": term_to_json(term.right)}
    if isinstance(term, ast.Permute):
        return {"k": "Permute", "body": term_to_json(term.body),
                "perm": list(term.perm)}
    if isinstance(term, ast.SelectEq):
        return {"k": "SelectEq", "body": term_to_json(term.body),
                "i": term.i, "j": term.j}
    raise StoreCodecError(f"unknown QLhs term {term!r}")


def term_from_json(data: Any) -> ast.Term:
    """Invert :func:`term_to_json`."""
    kind = _kind(data, "term")
    if kind == "E":
        return ast.E()
    if kind == "Rel":
        return ast.Rel(data["index"])
    if kind == "Var":
        return ast.VarT(data["name"])
    if kind == "Inter":
        return ast.Inter(term_from_json(data["left"]),
                         term_from_json(data["right"]))
    if kind == "Comp":
        return ast.Comp(term_from_json(data["body"]))
    if kind == "Up":
        return ast.Up(term_from_json(data["body"]))
    if kind == "Down":
        return ast.Down(term_from_json(data["body"]))
    if kind == "Swap":
        return ast.Swap(term_from_json(data["body"]))
    if kind == "Product":
        return ast.Product(term_from_json(data["left"]),
                           term_from_json(data["right"]))
    if kind == "Permute":
        return ast.Permute(term_from_json(data["body"]),
                           tuple(data["perm"]))
    if kind == "SelectEq":
        return ast.SelectEq(term_from_json(data["body"]),
                            data["i"], data["j"])
    raise StoreCodecError(f"unknown serialized term kind {kind!r}")


def program_to_json(program: ast.Program) -> Any:
    """One QLhs program as JSON-safe structural data."""
    if isinstance(program, ast.Assign):
        return {"k": "Assign", "var": program.var,
                "term": term_to_json(program.term)}
    if isinstance(program, ast.Seq):
        return {"k": "Seq",
                "body": [program_to_json(p) for p in program.body]}
    if isinstance(program, ast.WhileEmpty):
        return {"k": "WhileEmpty", "var": program.var,
                "body": program_to_json(program.body)}
    if isinstance(program, ast.WhileSingleton):
        return {"k": "WhileSingleton", "var": program.var,
                "body": program_to_json(program.body)}
    raise StoreCodecError(f"unknown QLhs program {program!r}")


def program_from_json(data: Any) -> ast.Program:
    """Invert :func:`program_to_json`."""
    kind = _kind(data, "program")
    if kind == "Assign":
        return ast.Assign(data["var"], term_from_json(data["term"]))
    if kind == "Seq":
        return ast.Seq([program_from_json(p) for p in data["body"]])
    if kind == "WhileEmpty":
        return ast.WhileEmpty(data["var"], program_from_json(data["body"]))
    if kind == "WhileSingleton":
        return ast.WhileSingleton(data["var"],
                                  program_from_json(data["body"]))
    raise StoreCodecError(f"unknown serialized program kind {kind!r}")


# ---------------------------------------------------------------------------
# Plans.
# ---------------------------------------------------------------------------

def plan_to_json(plan: Plan) -> Any:
    """One plan tree as JSON-safe structural data.

    Raises :class:`UnserializablePlanError` for
    :class:`~repro.engine.plan.MachineFixpoint` (live-callable payload)
    and :class:`StoreCodecError` for unknown node kinds.
    """
    if isinstance(plan, Scan):
        return {"k": "Scan", "index": plan.index}
    if isinstance(plan, FullScan):
        return {"k": "FullScan", "rank": plan.rank}
    if isinstance(plan, Empty):
        return {"k": "Empty", "rank": plan.rank}
    if isinstance(plan, FilterEq):
        return {"k": "FilterEq", "child": plan_to_json(plan.child),
                "i": plan.i, "j": plan.j}
    if isinstance(plan, FilterAtom):
        return {"k": "FilterAtom", "child": plan_to_json(plan.child),
                "index": plan.index, "positions": list(plan.positions),
                "negate": plan.negate}
    if isinstance(plan, Project):
        return {"k": "Project", "child": plan_to_json(plan.child),
                "coords": list(plan.coords)}
    if isinstance(plan, Extend):
        return {"k": "Extend", "child": plan_to_json(plan.child)}
    if isinstance(plan, Join):
        return {"k": "Join", "left": plan_to_json(plan.left),
                "right": plan_to_json(plan.right)}
    if isinstance(plan, Quantify):
        return {"k": "Quantify", "child": plan_to_json(plan.child),
                "kind": plan.kind}
    if isinstance(plan, Union):
        return {"k": "Union",
                "children": [plan_to_json(c) for c in plan.children]}
    if isinstance(plan, Intersect):
        return {"k": "Intersect",
                "children": [plan_to_json(c) for c in plan.children]}
    if isinstance(plan, Complement):
        return {"k": "Complement", "child": plan_to_json(plan.child)}
    if isinstance(plan, Fixpoint):
        return {"k": "Fixpoint", "program": program_to_json(plan.program),
                "result_var": plan.result_var}
    if isinstance(plan, FcfFixpoint):
        return {"k": "FcfFixpoint",
                "program": program_to_json(plan.program)}
    if isinstance(plan, MachineFixpoint):
        raise UnserializablePlanError(
            "MachineFixpoint carries a live Python callable; its cache "
            "entries are process-local by contract and cannot be "
            "persisted")
    raise StoreCodecError(f"unknown plan node {plan!r}")


def plan_from_json(data: Any) -> Plan:
    """Invert :func:`plan_to_json`.

    Structural equality of the rebuilt tree (dataclass ``__eq__``) is
    what makes reloaded result-cache keys hit: the engine's prepared
    plan and the decoded plan are equal, so they are one cache key.
    """
    kind = _kind(data, "plan")
    if kind == "Scan":
        return Scan(data["index"])
    if kind == "FullScan":
        return FullScan(data["rank"])
    if kind == "Empty":
        return Empty(data["rank"])
    if kind == "FilterEq":
        return FilterEq(plan_from_json(data["child"]),
                        data["i"], data["j"])
    if kind == "FilterAtom":
        return FilterAtom(plan_from_json(data["child"]), data["index"],
                          tuple(data["positions"]), data["negate"])
    if kind == "Project":
        return Project(plan_from_json(data["child"]),
                       tuple(data["coords"]))
    if kind == "Extend":
        return Extend(plan_from_json(data["child"]))
    if kind == "Join":
        return Join(plan_from_json(data["left"]),
                    plan_from_json(data["right"]))
    if kind == "Quantify":
        return Quantify(plan_from_json(data["child"]), data["kind"])
    if kind == "Union":
        return Union([plan_from_json(c) for c in data["children"]])
    if kind == "Intersect":
        return Intersect([plan_from_json(c) for c in data["children"]])
    if kind == "Complement":
        return Complement(plan_from_json(data["child"]))
    if kind == "Fixpoint":
        return Fixpoint(program_from_json(data["program"]),
                        data["result_var"])
    if kind == "FcfFixpoint":
        return FcfFixpoint(program_from_json(data["program"]))
    raise StoreCodecError(f"unknown serialized plan kind {kind!r}")


def canonical_plan_text(plan: Plan) -> str:
    """The canonical JSON text of a plan (sorted keys, no whitespace).

    One plan tree has exactly one canonical text, so the text is a
    faithful identity — :func:`plan_hash` digests it.
    """
    return json.dumps(plan_to_json(plan), sort_keys=True,
                      separators=(",", ":"))


def plan_hash(plan: Plan) -> str:
    """The durable identity of a plan: SHA-256 over its canonical text.

    Stable across processes and restarts (unlike Python's per-process
    salted ``hash()``), and equal exactly for structurally equal plans.
    """
    return text_hash(canonical_plan_text(plan))


def text_hash(plan_text: str) -> str:
    """:func:`plan_hash` from a canonical text already at hand, so a
    caller that needs both encodes the plan once."""
    return hashlib.sha256(plan_text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Evaluated values and cache-key args.
# ---------------------------------------------------------------------------

def value_to_json(value: Any) -> Any:
    """One evaluated result as JSON-safe data.

    Covers the three representations the engine caches: path-set
    :class:`~repro.qlhs.interpreter.Value`,
    :class:`~repro.fcf.relation.FcfValue`, and ``bool`` membership
    answers.  Paths and tuples are sorted by their canonical encoding
    so equal values serialize to equal text.
    """
    if isinstance(value, bool):
        return {"k": "bool", "v": value}
    if isinstance(value, Value):
        return {"k": "value", "rank": value.rank,
                "paths": _sorted_labels(value.paths)}
    if isinstance(value, FcfValue):
        return {"k": "fcf", "rank": value.rank,
                "tuples": _sorted_labels(value.tuples),
                "cofinite": value.cofinite}
    raise StoreCodecError(
        f"cannot serialize result of type {type(value).__name__}")


def value_from_json(data: Any) -> Any:
    """Invert :func:`value_to_json`."""
    kind = _kind(data, "value")
    if kind == "bool":
        return bool(data["v"])
    if kind == "value":
        return Value(data["rank"],
                     frozenset(decode_label(p) for p in data["paths"]))
    if kind == "fcf":
        return FcfValue(data["rank"],
                        frozenset(decode_label(t) for t in data["tuples"]),
                        cofinite=bool(data["cofinite"]))
    raise StoreCodecError(f"unknown serialized value kind {kind!r}")


def args_to_json(args: Any) -> str:
    """Cache-key ``args`` as canonical JSON text.

    ``args`` is either ``()`` (a plain evaluation) or a tuple like
    ``("contains", u)`` — nested tuples of labels and strings, which is
    exactly the label alphabet, so the label codec covers it.
    """
    return json.dumps(encode_label(args), sort_keys=True,
                      separators=(",", ":"))


def args_from_json(text: str) -> Any:
    """Invert :func:`args_to_json`."""
    return decode_label(json.loads(text))


# ---------------------------------------------------------------------------
# Verdicts and budget classes.
# ---------------------------------------------------------------------------

def verdict_to_json(verdict: Verdict) -> dict:
    """The persistable part of a verdict: ``(status, reason, steps)``.

    The evaluated ``value`` is deliberately *not* carried here —
    completed values live in the results table; verdict rows exist for
    UNKNOWN replay, where there is no value.
    """
    return {"status": verdict.status, "reason": verdict.reason,
            "steps": verdict.steps}


def verdict_from_json(data: dict) -> Verdict:
    """Invert :func:`verdict_to_json` (value-free)."""
    return Verdict(status=data["status"], reason=data.get("reason"),
                   steps=data.get("steps"))


def budget_class(max_steps: int | None) -> str:
    """The budget class a verdict was computed under.

    ``"inf"`` for an unbounded step budget, else the decimal step
    limit.  This is the tag that makes persisted UNKNOWNs safe to
    replay: an ``UNKNOWN(out_of_fuel)`` computed at class ``B`` answers
    only requests whose own step budget is **at most** ``B`` (the
    Corman–Nutt–Savković reuse rule; ``docs/persistence.md``).
    """
    return "inf" if max_steps is None else str(int(max_steps))


def budget_class_steps(cls: str) -> int | None:
    """Invert :func:`budget_class` (``"inf"`` → ``None``)."""
    return None if cls == "inf" else int(cls)


def _kind(data: Any, what: str) -> str:
    """The ``"k"`` discriminator of one serialized node (checked)."""
    if not isinstance(data, dict) or "k" not in data:
        raise StoreCodecError(f"malformed serialized {what}: {data!r}")
    return data["k"]


def _sorted_labels(items) -> list:
    """Encode and canonically order a set of labels/paths."""
    encoded = [encode_label(x) for x in items]
    encoded.sort(key=lambda e: json.dumps(e, sort_keys=True,
                                          separators=(",", ":")))
    return encoded
