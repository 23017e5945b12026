"""E22 — worker processes beat the GIL on coarse work.

Claim: every oracle question holds the GIL, so only processes run CPU
work on several cores, and they pay where the work is coarse — whole
fuzz cases, not single plans or tuples.  Measured: wall time of the
seeded check campaign (``run_check(seed=7, cases=500)``) in one worker
process against the same campaign fanned across ``W`` worker
processes (``python -m repro check --workers W``), with the two
reports' ``summary``, ``kinds`` and ``failures`` asserted equal, plus
a ``ShardExecutor.eval_batch`` verdict-agreement check for the
ordered-merge path.

Both sides do the same oracle work.  Inside a worker process the
``shard`` oracle runs inline (pools do not nest), so the one-worker
baseline also runs its campaign in a worker process rather than in
this one, where that oracle would start its own two-process pool.

Gate: ≥3x speedup with 4 workers (≥2x with 2 workers under
``--quick``) — **applied only when the machine has at least that many
cores** (``os.cpu_count()``); processes cannot beat the GIL on
hardware that has nothing to run them on, so small machines still
assert agreement and record the ratio but do not fail the gate.

Run under pytest (tier-2: ``pytest benchmarks/bench_e22_shard.py -s``)
or as a script emitting the E22 JSON artifact::

    PYTHONPATH=src python benchmarks/bench_e22_shard.py --out=e22.json
"""

import json
import multiprocessing
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

from repro.check.runner import run_check
from repro.engine import Engine, plan_from_sentence
from repro.engine.shard import ShardExecutor
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

#: The campaign: the seed and size CI's fixed campaign runs.
SEED = 7
CASES = 500

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
GATE = 3.0
QUICK_GATE = 2.0

#: The report fields a ``--workers`` campaign must reproduce exactly.
AGREEING_FIELDS = ("summary", "kinds", "failures")


def _timed_campaign(workers: int, cases: int) -> tuple[dict, float]:
    """One seeded campaign's report and wall time, pool start included.

    ``workers == 1`` runs :func:`run_check` in a single forkserver
    worker process, the start method the ``--workers`` pool uses.
    """
    t0 = time.perf_counter()
    if workers > 1:
        result = run_check(SEED, cases, workers=workers)
    else:
        context = multiprocessing.get_context("forkserver")
        with ProcessPoolExecutor(1, mp_context=context) as pool:
            result = pool.submit(run_check, SEED, cases).result()
    return result, time.perf_counter() - t0


def measure(workers: int = WORKERS, cases: int = CASES) -> dict:
    """The E22 measurement: one worker process vs ``workers``.

    The parallel campaign runs first, so it pays for starting the
    forkserver and the baseline does not.
    """
    parallel, par_s = _timed_campaign(workers, cases)
    sequential, seq_s = _timed_campaign(1, cases)
    for field in AGREEING_FIELDS:
        assert parallel[field] == sequential[field], (
            f"--workers {workers} changed the campaign's {field!r}")

    db = rado_hsdb()
    plans = [plan_from_sentence(parse(s), db.signature)
             for s in RADO_WORKLOAD]
    seq_verdicts = [v.status for v in Engine(db).eval_batch(plans)]
    with ShardExecutor(workers) as executor:
        shard_verdicts = [v.status for v in executor.eval_batch(
            Engine(rado_hsdb()), plans)]
    assert shard_verdicts == seq_verdicts, (
        f"eval_batch merge changed a verdict: {shard_verdicts!r} "
        f"!= {seq_verdicts!r}")

    cpus = os.cpu_count() or 1
    return {
        "experiment": "E22",
        "seed": SEED,
        "cases": cases,
        "workers": workers,
        "cpus": cpus,
        "failures": len(sequential["failures"]),
        "sequential": {"seconds": seq_s},
        "sharded": {"seconds": par_s},
        "process_speedup": seq_s / max(par_s, 1e-9),
        "eval_verdicts": seq_verdicts,
        "gate_applicable": cpus >= workers,
    }


def _report(data: dict) -> None:
    report("E22 check campaign: one worker process vs several", [
        ("cases", data["cases"],
         f"seed {data['seed']}, {data['workers']} workers on "
         f"{data['cpus']} cores"),
        ("1 worker", f"{data['sequential']['seconds']:.2f} s", ""),
        (f"{data['workers']} workers",
         f"{data['sharded']['seconds']:.2f} s",
         f"{data['process_speedup']:.2f}x"),
        ("gate", "applies" if data["gate_applicable"]
         else "skipped (too few cores)", ""),
    ])


def test_e22_shard_agreement_and_speedup():
    """Both campaigns report the same, the ordered merge agrees, and
    the processes beat the ≥2x two-worker gate when two cores exist
    to run them on."""
    data = measure(QUICK_WORKERS)
    _report(data)
    # measure() asserted the report and verdict agreements internally.
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
    data = measure(workers)
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
