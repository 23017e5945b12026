"""E20 — cold FO is de-oracled: the default engine on direct plans
against the interpreter on the paper's macro plans.

Claim: the paper's macro lowering of FO (``compile_formula``:
projection towers, ``select_atom`` joins) makes *cold* evaluation
oracle-bound, and the engine's default path — the direct FO lowering
(:func:`repro.engine.plan_from_sentence`, one ``Quantify`` per
quantifier), prepared by the rule-based optimizer
(:mod:`repro.engine.optimize`) and run by the compile-to-closure
backend (:mod:`repro.engine.compile`) — removes that cost without
changing a single answer.  Measured, on the E15 Rado sentence workload
with a fresh database per round (cold result cache, warm plan cache —
the serving tier's steady state for new tenants): wall time and oracle
questions of the interpreted engine on macro plans
(:func:`repro.engine.plan_from_formula_macro`) vs the default engine
on direct plans, with bit-for-bit verdict agreement asserted every
round.  Gate: ≥5× cold speedup (≥2× under ``--quick``).

Run under pytest (tier-2: ``pytest benchmarks/bench_e20_optimizer.py
-s``) or as a script emitting the E20 JSON artifact::

    PYTHONPATH=src python benchmarks/bench_e20_optimizer.py --out=e20.json
"""

import json
import sys
import time

from repro.engine import (
    Engine,
    EngineCache,
    plan_from_formula_macro,
    plan_from_sentence,
)
from repro.engine.cache import PlanCache
from repro.logic import parse
from repro.symmetric import rado_hsdb

try:
    from conftest import report
except ImportError:  # script mode: benchmarks/ is not on sys.path
    def report(title, rows):
        """Print an experiment's data series (script-mode fallback)."""
        print(f"\n[{title}]")
        for row in rows:
            print("   ", *row)

#: The E15 Rado sentence workload, verbatim (bench_e15_engine.py).
RADO_WORKLOAD = [
    "forall x. exists y. R1(x, y)",
    "exists x. R1(x, x)",
    "forall x. forall y. (R1(x, y) -> R1(y, x))",
    "exists x. exists y. (R1(x, y) and x != y)",
    "forall x. exists y. (R1(x, y) and x != y)",
    "exists x. forall y. R1(x, y)",
]

ROUNDS = 8
QUICK_ROUNDS = 3
GATE = 5.0
QUICK_GATE = 2.0


def _engine(db, plans: PlanCache, *, optimize: bool,
            compiled: bool) -> Engine:
    """A fresh engine: cold result cache, shared (warm) plan cache."""
    cache = EngineCache()
    cache.plans = plans
    return Engine(db, cache=cache, optimize=optimize, compiled=compiled)


def _macro_plan(sentence, signature):
    """The paper's macro lowering of a sentence, as a plan."""
    return plan_from_formula_macro(sentence, [], signature)


def _run_rounds(rounds: int, plans: PlanCache, *, optimize: bool,
                compiled: bool, lower):
    """``rounds`` cold evaluations of the workload lowered by ``lower``,
    one fresh database (and engine, and result cache) per round.

    Databases, engines (fingerprinting), and lowered plans are built
    *outside* the timed region: E20 measures evaluation, not setup.
    """
    engines = [_engine(rado_hsdb(), plans, optimize=optimize,
                       compiled=compiled) for __ in range(rounds)]
    workload = [lower(parse(s), engines[0].signature)
                for s in RADO_WORKLOAD]
    verdicts = []
    t0 = time.perf_counter()
    for engine in engines:
        verdicts.append([engine.holds(p) for p in workload])
    elapsed = time.perf_counter() - t0
    questions = sum(e.stats().oracle_questions for e in engines)
    return elapsed, questions, verdicts


def measure(rounds: int = ROUNDS) -> dict:
    """The E20 measurement: macro plans interpreted vs direct plans on
    the default engine, cold rounds."""
    plans = PlanCache()
    naive = dict(optimize=False, compiled=False, lower=_macro_plan)
    fast = dict(optimize=True, compiled=True, lower=plan_from_sentence)
    # Warm the plan cache (normalization + optimization memo) once so
    # both paths amortize preparation exactly as a long-lived serving
    # cache would; the timed rounds then measure pure evaluation.
    _run_rounds(1, plans, **naive)
    _run_rounds(1, plans, **fast)

    naive_s, naive_q, naive_verdicts = _run_rounds(rounds, plans, **naive)
    fast_s, fast_q, fast_verdicts = _run_rounds(rounds, plans, **fast)
    assert fast_verdicts == naive_verdicts, (
        "the default path changed an answer: "
        f"{fast_verdicts!r} != {naive_verdicts!r}")

    optimizations, rewrites = plans.optimizer_stats()
    return {
        "experiment": "E20",
        "workload": RADO_WORKLOAD,
        "sides": {"interpreted": "macro plans, optimize and compile off",
                  "optimized_compiled": "direct plans, the default engine"},
        "rounds": rounds,
        "interpreted": {"seconds": naive_s, "oracle_questions": naive_q},
        "optimized_compiled": {"seconds": fast_s,
                               "oracle_questions": fast_q},
        "speedup": naive_s / max(fast_s, 1e-9),
        "verdicts": naive_verdicts[0],
        "optimizations": optimizations,
        "rewrites": dict(rewrites),
    }


def _report(data: dict) -> None:
    interp = data["interpreted"]
    fast = data["optimized_compiled"]
    report("E20 default engine on direct plans vs interpreted macro "
           "plans, cold (Rado workload)", [
        ("macro, interpreted", f"{interp['seconds'] * 1e3:.2f} ms",
         f"{interp['oracle_questions']} oracle questions"),
        ("direct, default", f"{fast['seconds'] * 1e3:.2f} ms",
         f"{fast['oracle_questions']} oracle questions"),
        ("speedup", f"{data['speedup']:.2f}x",
         f"{data['rounds']} fresh-database rounds"),
        ("rewrites", sum(data["rewrites"].values()),
         f"across {data['optimizations']} optimized plans"),
    ])


def test_e20_optimizer_speedup():
    """The default engine on direct plans beats the interpreter on
    macro plans ≥5× cold."""
    data = measure(ROUNDS)
    _report(data)
    assert data["speedup"] >= GATE, (
        f"E20 gate: expected >= {GATE}x, measured "
        f"{data['speedup']:.2f}x")
    assert (data["optimized_compiled"]["oracle_questions"]
            < data["interpreted"]["oracle_questions"])
    assert data["optimizations"] > 0


def main(argv: list[str]) -> int:
    quick = "--quick" in argv
    out = None
    for arg in argv:
        if arg.startswith("--out="):
            out = arg.split("=", 1)[1]
        elif arg != "--quick":
            print(f"unknown flag {arg!r}\n"
                  "usage: bench_e20_optimizer.py [--quick] [--out=FILE]",
                  file=sys.stderr)
            return 2
    gate = QUICK_GATE if quick else GATE
    data = measure(QUICK_ROUNDS if quick else ROUNDS)
    data["gate"] = gate
    data["passed"] = data["speedup"] >= gate
    _report(data)
    if out:
        with open(out, "w") as fh:
            json.dump(data, fh, indent=2, sort_keys=True)
        print(f"wrote {out}")
    if not data["passed"]:
        print(f"E20 gate FAILED: {data['speedup']:.2f}x < {gate}x",
              file=sys.stderr)
        return 1
    print(f"E20 gate passed: {data['speedup']:.2f}x >= {gate}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
