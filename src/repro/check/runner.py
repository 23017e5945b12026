"""The checking campaign driver and the ``python -m repro check`` CLI.

:func:`run_check` is the loop: generate ``cases`` seeded cases
(:func:`repro.check.generators.gen_case`), build each into a
:class:`~repro.check.oracles.CaseContext`, run its applicable oracle
battery (:func:`~repro.check.oracles.run_oracles`), and on any genuine
failure — an oracle ``FAIL`` or an unexpected exception — shrink the
counterexample (:func:`~repro.check.shrink.shrink_case`) and emit a
standalone reproducer script.  The whole campaign is wrapped in
``check.run`` / ``check.case`` / ``check.oracle.*`` trace spans, so
``--trace=FILE`` produces a span tree with per-oracle statuses.

The report (``--out report.json``) is a JSON document::

    {"seed": 7, "cases_run": 500, "elapsed_s": 12.3,
     "summary": {"differential": {"ok": 498, "unknown": 2}, ...},
     "kinds": {"term-fcf": 170, ...},
     "failures": [{"case": "...", "oracle": "differential",
                   "detail": "...", "reproducer": "repro_007.py"}]}

Exit status: 0 when no oracle failed, 1 otherwise — suitable for CI.
"""

from __future__ import annotations

import json
import random
import time
from collections import Counter

from ..trace import span
from ..util.cli import parse_number
from .generators import Case, gen_case
from .oracles import (
    DEFAULT_CASE_STEPS,
    FAIL,
    ORACLES,
    ORACLES_BY_KIND,
    CaseContext,
    OracleOutcome,
)
from .shrink import query_size, shrink_case, write_reproducer


def _run_case(case: Case, budget_steps: int) -> list[OracleOutcome]:
    """Build one case and run its oracle battery (may raise)."""
    from .oracles import run_oracles
    ctx = CaseContext(case, budget_steps=budget_steps)
    return run_oracles(ctx)


def _failure_predicate(oracle_name: str | None, crash_type: str | None,
                       budget_steps: int):
    """The shrinker's ``failing`` predicate for one observed failure.

    An oracle failure persists when re-running *that* oracle still
    fails; a crash persists when rebuilding/running raises the same
    exception type.  Everything else (including differently-broken
    candidates) counts as not failing, keeping the shrink faithful.
    """
    def failing(candidate: Case) -> bool:
        try:
            ctx = CaseContext(candidate, budget_steps=budget_steps)
            if oracle_name is not None:
                return ORACLES[oracle_name](ctx).status == FAIL
            for name in ORACLES_BY_KIND[candidate.kind]:
                ORACLES[name](ctx)
        except Exception as exc:  # noqa: BLE001 — crash reproduction
            return (crash_type is not None
                    and type(exc).__name__ == crash_type)
        return False

    return failing


def _record_failure(case: Case, oracle_name: str | None, detail: str,
                    crash_type: str | None, budget_steps: int,
                    emit_dir: str | None, failures: list[dict]) -> None:
    """Shrink a failing case, emit its reproducer, append to report."""
    failing = _failure_predicate(oracle_name, crash_type, budget_steps)
    shrunk = case
    if failing(case):  # only shrink deterministic failures
        shrunk = shrink_case(case, failing)
    entry = {
        "case": case.describe(),
        "oracle": oracle_name or "crash",
        "detail": detail,
        "shrunk": shrunk.describe(),
        "shrunk_tuples": (shrunk.fcf.tuple_count
                          if shrunk.fcf is not None else 0),
        "shrunk_query_nodes": query_size(shrunk),
    }
    if emit_dir is not None:
        import os
        os.makedirs(emit_dir, exist_ok=True)
        path = os.path.join(emit_dir, f"repro_{case.index:04d}.py")
        entry["reproducer"] = write_reproducer(shrunk, path,
                                               detail=detail)
    failures.append(entry)


def _check_worker(task: dict) -> dict:
    """One campaign shard, run in a worker process.

    Replays the *full* seeded case stream (``gen_case`` is stateful:
    case ``i`` depends on the generator state after case ``i-1``, so
    skipping ahead would change the cases) but runs the oracle battery
    only on this shard's assigned indices.  Returns a JSON-safe partial
    report; shrinking and reproducer emission stay with the parent
    (the ingest parent-writer pattern).  Module-level so worker
    processes can import it (:class:`repro.engine.shard.WorkerPool`).
    """
    rng = random.Random(task["seed"])
    assigned = set(task["indices"])
    budget_s = task["budget_s"]
    deadline = (None if budget_s is None
                else time.monotonic() + budget_s)
    summary: dict[str, Counter] = {}
    kinds: Counter = Counter()
    failures: list[dict] = []
    cases_run = 0
    for index in range(task["cases"]):
        case = gen_case(rng, index, gmhs_every=task["gmhs_every"])
        if index not in assigned:
            continue
        if deadline is not None and time.monotonic() > deadline:
            break
        kinds[case.kind] += 1
        cases_run += 1
        try:
            outcomes = _run_case(case, task["case_steps"])
        except Exception as exc:  # noqa: BLE001 — report, don't die
            failures.append({
                "index": index, "oracle": None,
                "detail": (f"{type(exc).__name__}: {exc} on "
                           f"{case.describe()}"),
                "crash_type": type(exc).__name__})
            continue
        for outcome in outcomes:
            summary.setdefault(outcome.oracle, Counter())
            summary[outcome.oracle][outcome.status] += 1
            if outcome.failed:
                failures.append({"index": index, "oracle": outcome.oracle,
                                 "detail": outcome.detail,
                                 "crash_type": None})
    return {"cases_run": cases_run, "kinds": dict(kinds),
            "summary": {name: dict(counts)
                        for name, counts in summary.items()},
            "failures": failures}


def _run_check_sharded(seed: int, cases: int, *, budget_s, out, emit_dir,
                       case_steps: int, gmhs_every: int, workers: int,
                       verbose: bool) -> dict:
    """The ``workers > 1`` campaign: fan cases across processes.

    Indices are dealt round-robin so every shard sees the same mix of
    cheap and expensive case kinds; the merged report has the same
    ``summary``/``kinds``/``failures`` content as a sequential run of
    the same seed (``budget_s`` aside — each worker enforces it
    independently).  Failures come back as bare indices: the parent
    regenerates those cases, shrinks them, and emits reproducers
    itself, so only one process ever writes to ``emit_dir``.
    """
    from ..engine.shard import WorkerPool

    started = time.monotonic()
    nshards = min(workers, cases)
    tasks = [{"seed": seed, "cases": cases,
              "indices": list(range(shard, cases, nshards)),
              "case_steps": case_steps, "gmhs_every": gmhs_every,
              "budget_s": budget_s}
             for shard in range(nshards)]
    summary: dict[str, Counter] = {name: Counter() for name in ORACLES}
    kinds: Counter = Counter()
    raw_failures: list[dict] = []
    cases_run = 0
    with span("check.run", seed=seed, cases=cases,
              workers=nshards) as run_span:
        with WorkerPool(nshards) as pool:
            payloads = pool.map(_check_worker, tasks)
        for shard, payload in enumerate(payloads):
            with span("check.shard", shard=shard) as sp:
                cases_run += payload["cases_run"]
                kinds.update(payload["kinds"])
                for oracle, counts in payload["summary"].items():
                    summary[oracle].update(counts)
                raw_failures.extend(payload["failures"])
                sp.count("cases", payload["cases_run"])
        failures: list[dict] = []
        if raw_failures:
            raw_failures.sort(key=lambda entry: entry["index"])
            wanted = {entry["index"] for entry in raw_failures}
            stream: dict[int, Case] = {}
            rng = random.Random(seed)
            for index in range(cases):
                case = gen_case(rng, index, gmhs_every=gmhs_every)
                if index in wanted:
                    stream[index] = case
            for raw in raw_failures:
                _record_failure(stream[raw["index"]], raw["oracle"],
                                raw["detail"], raw["crash_type"],
                                case_steps, emit_dir, failures)
        run_span.set(cases_run=cases_run, failures=len(failures))
    if verbose:
        print(f"  ... {cases_run}/{cases} cases across {nshards} "
              f"worker(s), {len(failures)} failure(s)")

    report = {
        "seed": seed,
        "cases_requested": cases,
        "cases_run": cases_run,
        "elapsed_s": round(time.monotonic() - started, 3),
        "workers": nshards,
        "summary": {name: dict(counts)
                    for name, counts in summary.items() if counts},
        "kinds": dict(kinds),
        "failures": failures,
    }
    if out is not None:
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
    return report


def run_check(seed: int, cases: int = 500, *,
              budget_s: float | None = None,
              out: str | None = None,
              emit_dir: str | None = None,
              case_steps: int = DEFAULT_CASE_STEPS,
              gmhs_every: int = 50,
              workers: int | None = None,
              verbose: bool = False) -> dict:
    """Run a differential/metamorphic checking campaign.

    Deterministic given ``seed`` (``budget_s`` only truncates the case
    sequence).  Returns the report dict; also writes it to ``out`` as
    JSON when given, and emits shrunk reproducers into ``emit_dir``.

    ``workers=N`` (N > 1) fans the cases across a process pool: same
    cases, same oracle batteries, same failures — the merged report
    agrees with a sequential run of the same seed (a pinned test) —
    with shrinking and reproducer writing kept in the parent.
    """
    if workers is not None and workers > 1 and cases > 1:
        return _run_check_sharded(
            seed, cases, budget_s=budget_s, out=out, emit_dir=emit_dir,
            case_steps=case_steps, gmhs_every=gmhs_every,
            workers=workers, verbose=verbose)
    rng = random.Random(seed)
    started = time.monotonic()
    deadline = None if budget_s is None else started + budget_s
    summary: dict[str, Counter] = {name: Counter() for name in ORACLES}
    kinds: Counter = Counter()
    failures: list[dict] = []
    cases_run = 0

    with span("check.run", seed=seed, cases=cases) as run_span:
        for index in range(cases):
            if deadline is not None and time.monotonic() > deadline:
                break
            case = gen_case(rng, index, gmhs_every=gmhs_every)
            kinds[case.kind] += 1
            cases_run += 1
            with span("check.case", index=index, kind=case.kind) as sp:
                try:
                    outcomes = _run_case(case, case_steps)
                except Exception as exc:  # noqa: BLE001 — report, don't die
                    sp.set(status="crash")
                    detail = (f"{type(exc).__name__}: {exc} on "
                              f"{case.describe()}")
                    _record_failure(case, None, detail,
                                    type(exc).__name__, case_steps,
                                    emit_dir, failures)
                    continue
                worst = "ok"
                for outcome in outcomes:
                    summary[outcome.oracle][outcome.status] += 1
                    if outcome.failed:
                        worst = FAIL
                        _record_failure(case, outcome.oracle,
                                        outcome.detail, None, case_steps,
                                        emit_dir, failures)
                sp.set(status=worst)
            if verbose and (index + 1) % 100 == 0:
                print(f"  ... {index + 1}/{cases} cases, "
                      f"{len(failures)} failure(s)")
        run_span.set(cases_run=cases_run, failures=len(failures))

    report = {
        "seed": seed,
        "cases_requested": cases,
        "cases_run": cases_run,
        "elapsed_s": round(time.monotonic() - started, 3),
        "summary": {name: dict(counts)
                    for name, counts in summary.items() if counts},
        "kinds": dict(kinds),
        "failures": failures,
    }
    if out is not None:
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
    return report


def replay(case: Case, *,
           budget_steps: int = DEFAULT_CASE_STEPS) -> int:
    """Re-run one case's oracle battery, printing every outcome.

    This is the entry point reproducer scripts call; returns the number
    of failing oracles (so ``raise SystemExit(replay(CASE))`` exits
    nonzero exactly while the bug persists).
    """
    print(case.describe())
    try:
        outcomes = _run_case(case, budget_steps)
    except Exception as exc:  # noqa: BLE001 — a crash is the repro
        print(f"  CRASH {type(exc).__name__}: {exc}")
        return 1
    fails = 0
    for outcome in outcomes:
        line = f"  {outcome.oracle}: {outcome.status.upper()}"
        if outcome.detail:
            line += f" — {outcome.detail}"
        print(line)
        fails += outcome.failed
    return fails


def format_report(report: dict) -> str:
    """Human-readable campaign summary for the CLI."""
    lines = [f"check: seed={report['seed']} "
             f"cases={report['cases_run']}/{report['cases_requested']} "
             f"elapsed={report['elapsed_s']}s"]
    lines.append("  kinds: " + ", ".join(
        f"{k}={n}" for k, n in sorted(report["kinds"].items())))
    for oracle, counts in sorted(report["summary"].items()):
        cells = ", ".join(f"{s}={n}" for s, n in sorted(counts.items()))
        lines.append(f"  {oracle}: {cells}")
    if report["failures"]:
        lines.append(f"  FAILURES: {len(report['failures'])}")
        for entry in report["failures"]:
            lines.append(f"    [{entry['oracle']}] {entry['detail']}")
            lines.append(f"      shrunk to: {entry['shrunk']} "
                         f"({entry['shrunk_tuples']} tuple(s), "
                         f"{entry['shrunk_query_nodes']} query node(s))")
            if "reproducer" in entry:
                lines.append(f"      reproducer: {entry['reproducer']}")
    else:
        lines.append("  no failures")
    return "\n".join(lines)


def main(args: list[str]) -> int:
    """``check [--seed=N] [--cases=K] [--budget-s=S] [--out=F]
    [--emit-dir=D] [--steps=N] [--workers=W] [--quiet]`` — fuzz the
    frontends (``--workers=W`` with W > 1 fans the cases across a
    process pool; same report content, multiple cores); or
    ``check --stress [--seed=N] [--threads=T] [--ops=K] [--budget-s=S]
    [--hammers=A,B] [--out=F] [--quiet]`` — run the multi-threaded
    race-stress campaign (:mod:`repro.check.stress`) instead
    (``--hammers`` selects a comma-separated subset by name).

    Flags accept both ``--flag=value`` and ``--flag value`` forms.
    Exit status 1 when any oracle failed (or, under ``--stress``, when
    any concurrency invariant broke).
    """
    from . import stress as stress_mod

    seed = 0
    cases = 500
    budget_s: float | None = None
    out: str | None = None
    emit_dir: str | None = None
    steps = DEFAULT_CASE_STEPS
    workers: int | None = None
    hammers: str | None = None
    verbose = True
    stress = False
    threads = stress_mod.DEFAULT_THREADS
    ops = stress_mod.DEFAULT_OPS

    usage = ("usage: python -m repro check "
             "[--stress] [--seed=N] [--cases=K] [--budget-s=S] "
             "[--out=F] [--emit-dir=D] [--steps=N] [--threads=T] "
             "[--ops=K] [--workers=W] [--hammers=A,B] [--quiet]")
    it = iter(args)
    for arg in it:
        if "=" in arg:
            flag, value = arg.split("=", 1)
        elif arg in ("--quiet", "--stress"):
            flag, value = arg, ""
        else:
            flag, value = arg, next(it, None)
            if value is None:
                raise SystemExit(f"flag {flag!r} needs a value")
        if flag == "--seed":
            seed = parse_number(flag, value, int, usage)
        elif flag == "--cases":
            cases = parse_number(flag, value, int, usage)
        elif flag == "--budget-s":
            budget_s = parse_number(flag, value, float, usage)
        elif flag == "--out":
            out = value
        elif flag == "--emit-dir":
            emit_dir = value
        elif flag == "--steps":
            steps = parse_number(flag, value, int, usage)
        elif flag == "--threads":
            threads = parse_number(flag, value, int, usage)
        elif flag == "--ops":
            ops = parse_number(flag, value, int, usage)
        elif flag == "--workers":
            workers = parse_number(flag, value, int, usage)
        elif flag == "--hammers":
            hammers = value
        elif flag == "--stress":
            stress = True
        elif flag == "--quiet":
            verbose = False
        else:
            raise SystemExit(f"unknown flag {flag!r}; {usage}")

    if stress:
        report = stress_mod.run_stress(
            seed, threads=threads, ops=ops, budget_s=budget_s,
            out=out, hammers=(tuple(hammers.split(","))
                              if hammers else None),
            verbose=verbose)
        print(stress_mod.format_stress_report(report))
        if out is not None:
            print(f"report -> {out}")
        return 1 if report["failures"] else 0

    report = run_check(seed, cases, budget_s=budget_s, out=out,
                       emit_dir=emit_dir, case_steps=steps,
                       workers=workers, verbose=verbose)
    print(format_report(report))
    if out is not None:
        print(f"report -> {out}")
    return 1 if report["failures"] else 0
