"""E22 — process sharding beats the GIL on CPU-bound batch work.

Claim: every membership test holds the GIL, so only processes run a
batch on several cores; the process-pool
:class:`~repro.engine.shard.ShardExecutor` runs shards on real cores.
Measured, on an E15-style Rado membership batch (one open
quantifier-free plan, a ``pool x pool`` probe grid, cold result cache
per phase): wall time of the sequential path vs the process pool, with
bit-for-bit answer agreement asserted between the two, plus a
``ShardExecutor.eval_batch`` verdict-agreement check for the
ordered-merge path.

Gate: ≥3x process-pool speedup over sequential with 4 workers (≥2x
with 2 workers under ``--quick``) — **applied only when the machine
has at least that many cores** (``os.cpu_count()``); sharding cannot
beat the GIL on hardware that has nothing to run shards on, so
single-core CI still asserts agreement and records the overhead ratio
but does not fail the speedup gate.

Run under pytest (tier-2: ``pytest benchmarks/bench_e22_shard.py -s``)
or as a script emitting the E22 JSON artifact::

    PYTHONPATH=src python benchmarks/bench_e22_shard.py --out=e22.json
"""

import json
import os
import sys
import time

from repro.engine import Engine, plan_from_formula, plan_from_sentence
from repro.engine.shard import ShardExecutor
from repro.logic import parse
from repro.logic import syntax as fo
from repro.symmetric import rado_hsdb

try:
    from conftest import report
except ImportError:  # script mode: benchmarks/ is not on sys.path
    def report(title, rows):
        """Print an experiment's data series (script-mode fallback)."""
        print(f"\n[{title}]")
        for row in rows:
            print("   ", *row)

#: The open probe plan: quantifier-free but oracle-bound — each
#: membership canonicalizes paths and asks the structure oracle twice,
#: which is exactly the CPU-under-the-GIL work E22 is about.
PROBE_FORMULA = "R1(x, y) and not R1(y, x)"

#: The E15 Rado sentence workload (bench_e15_engine.py), reused for
#: the ``ShardExecutor.eval_batch`` ordered-merge agreement check.
RADO_WORKLOAD = [
    "forall x. exists y. R1(x, y)",
    "exists x. R1(x, x)",
    "forall x. forall y. (R1(x, y) -> R1(y, x))",
    "exists x. exists y. (R1(x, y) and x != y)",
    "forall x. exists y. (R1(x, y) and x != y)",
    "exists x. forall y. R1(x, y)",
]

WORKERS = 4
QUICK_WORKERS = 2
POOL_SIZE = 100        # probe grid edge: POOL_SIZE^2 membership tests
QUICK_POOL_SIZE = 40
GATE = 3.0
QUICK_GATE = 2.0


def _workload(pool_size: int):
    """The probe plan and tuple grid over a fresh Rado database."""
    db = rado_hsdb()
    plan = plan_from_formula(parse(PROBE_FORMULA),
                             [fo.Var("x"), fo.Var("y")], db.signature)
    pool = db.domain.first(pool_size)
    tuples = [(x, y) for x in pool for y in pool]
    return db, plan, tuples


def measure(workers: int = WORKERS,
            pool_size: int = POOL_SIZE) -> dict:
    """The E22 measurement: sequential vs processes.

    Every phase gets a fresh engine over a freshly built database
    (Rado construction is deterministic, so the fingerprints — and
    answers — are identical): the structure oracle's memo and the
    result cache are both cold, so both paths pay for the same
    work.  The process pool is started and warmed (workers build
    their engines) before its timed phase, matching the serving
    tier's steady state.
    """
    db, plan, tuples = _workload(pool_size)

    t0 = time.perf_counter()
    sequential = Engine(db).batch_contains(plan, tuples)
    seq_s = time.perf_counter() - t0

    with ShardExecutor(workers) as executor:
        executor.batch_contains(Engine(rado_hsdb()), plan,
                                tuples[:workers * 2])
        engine = Engine(rado_hsdb())
        t0 = time.perf_counter()
        sharded = executor.batch_contains(engine, plan, tuples)
        shard_s = time.perf_counter() - t0

        assert sharded == sequential, "process pool changed an answer"

        # The ordered-merge eval path agrees too (same executor, so
        # worker engine caches are already warm).
        plans = [plan_from_sentence(parse(s), db.signature)
                 for s in RADO_WORKLOAD]
        eval_engine = Engine(db)
        seq_verdicts = [v.status for v in eval_engine.eval_batch(plans)]
        shard_verdicts = [v.status for v in executor.eval_batch(
            Engine(db), plans)]
        assert shard_verdicts == seq_verdicts, (
            f"eval_batch merge changed a verdict: {shard_verdicts!r} "
            f"!= {seq_verdicts!r}")

    cpus = os.cpu_count() or 1
    return {
        "experiment": "E22",
        "probe_formula": PROBE_FORMULA,
        "workers": workers,
        "cpus": cpus,
        "tuples": len(tuples),
        "sequential": {"seconds": seq_s},
        "sharded": {"seconds": shard_s},
        "process_speedup": seq_s / max(shard_s, 1e-9),
        "eval_verdicts": seq_verdicts,
        "gate_applicable": cpus >= workers,
    }


def _report(data: dict) -> None:
    report("E22 process-sharded batch vs sequential (Rado probes)", [
        ("tuples", data["tuples"],
         f"{data['workers']} workers on {data['cpus']} cores"),
        ("sequential", f"{data['sequential']['seconds'] * 1e3:.1f} ms",
         ""),
        ("process pool", f"{data['sharded']['seconds'] * 1e3:.1f} ms",
         f"{data['process_speedup']:.2f}x"),
        ("gate", "applies" if data["gate_applicable"]
         else "skipped (too few cores)", ""),
    ])


def test_e22_shard_agreement_and_speedup():
    """Both batch paths agree bit for bit; the process pool beats the
    ≥2x two-worker gate when two cores exist to run it on."""
    data = measure(QUICK_WORKERS, QUICK_POOL_SIZE)
    _report(data)
    # measure() asserted the bit-for-bit agreements internally.
    assert len(data["eval_verdicts"]) == len(RADO_WORKLOAD)
    if data["gate_applicable"]:
        assert data["process_speedup"] >= QUICK_GATE, (
            f"E22 gate: expected >= {QUICK_GATE}x on "
            f"{data['cpus']} cores, measured "
            f"{data['process_speedup']:.2f}x")


def main(argv: list[str]) -> int:
    quick = "--quick" in argv
    out = None
    for arg in argv:
        if arg.startswith("--out="):
            out = arg.split("=", 1)[1]
        elif arg != "--quick":
            print(f"unknown flag {arg!r}\n"
                  "usage: bench_e22_shard.py [--quick] [--out=FILE]",
                  file=sys.stderr)
            return 2
    workers = QUICK_WORKERS if quick else WORKERS
    gate = QUICK_GATE if quick else GATE
    data = measure(workers, QUICK_POOL_SIZE if quick else POOL_SIZE)
    data["gate"] = gate
    data["passed"] = (data["process_speedup"] >= gate
                      if data["gate_applicable"] else True)
    _report(data)
    if out:
        with open(out, "w") as fh:
            json.dump(data, fh, indent=2, sort_keys=True)
        print(f"wrote {out}")
    if not data["gate_applicable"]:
        print(f"E22 gate not applicable: {data['cpus']} cores < "
              f"{workers} workers (agreement checks passed)")
        return 0
    if not data["passed"]:
        print(f"E22 gate FAILED: {data['process_speedup']:.2f}x < "
              f"{gate}x", file=sys.stderr)
        return 1
    print(f"E22 gate passed: {data['process_speedup']:.2f}x >= {gate}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
