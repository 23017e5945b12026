"""Command-line entry point: ``python -m repro <command>``.

Commands
--------
``info``
    Library overview: version, subpackages, the paper reference.
``classes TYPE RANK``
    Count the ≅ₗ equivalence classes for a database type (comma-
    separated arities) and rank, e.g. ``python -m repro classes 2,1 2``
    prints the paper's 68.
``tree NAME [DEPTH]``
    Print the characteristic tree of a built-in hs-r-db (``clique``,
    ``rado``, ``triangles``, ``k3k2``) to the given depth.
``eval NAME FORMULA``
    Evaluate a first-order sentence over a built-in hs-r-db, e.g.
    ``python -m repro eval rado "forall x. exists y. R1(x, y)"``.
``engine NAME FORMULA [--repeat=N] [--stats]``
    Evaluate through the unified engine (``repro.engine``): the sentence
    is lowered to a plan, cached by database fingerprint, and re-run
    ``N`` times (warm runs are cache probes).  ``--stats`` prints the
    :class:`~repro.engine.stats.EngineStats` snapshot — cache
    hits/misses, oracle question count, per-node timings, wall time,
    verdict counts.
``check [--seed=N] [--cases=K] [--budget-s=S] [--out=F] [--emit-dir=D]
[--workers=W]``
    Differential & metamorphic fuzzing of the four query frontends
    (``repro.check``): random databases and queries, every applicable
    frontend must agree modulo ``UNKNOWN``; failures are shrunk and
    emitted as standalone reproducer scripts.  ``--workers=W`` (W > 1)
    fans the cases across a process pool (``docs/sharding.md``) with
    the same report content; shrinking and reproducer writing stay in
    the parent.  Exit status 1 on any genuine disagreement.
``check --stress [--seed=N] [--threads=T] [--ops=K] [--budget-s=S] [--out=F]
[--hammers=A,B]``
    The race-stress campaign instead (``repro.check.stress``): seeded
    multi-threaded hammers pounding shared budgets, caches, recorders,
    engines, and a process-pool shard executor, asserting the
    thread-safety contract of ``docs/concurrency.md`` (exact
    accounting, zero escaped exceptions, sequential-reference
    agreement).  ``--budget-s`` loops fresh-seeded rounds for a
    wall-clock budget; ``--hammers=A,B`` restricts a round to named
    hammers; exit status 1 when any invariant broke.
``serve [--config=FILE] [--host=H] [--port=P] [--store=DB] [--print-config]``
    Run the HTTP/JSON serving tier (``repro.serve``): the unified
    engine behind ``POST /eval`` / ``POST /eval_batch`` (streamed
    NDJSON verdicts), with a catalog of named databases, per-tenant
    quotas (HTTP 429 on exhaustion), and ``GET /stats`` / ``GET
    /trace`` observability.  ``--config`` loads a TOML or JSON config
    (see ``docs/serving.md``); without it the batteries-included
    default catalog is served.  ``--store=DB`` attaches a durable
    sqlite store (``repro.store``): persisted results load at startup
    so restarts serve warm, and new verdicts write through (see
    ``docs/persistence.md``).  ``[server] workers`` sizes the serve
    thread pool; batches run in-process, one member at a time.
    ``--print-config`` dumps the effective config as JSON and exits.
``ingest MANIFEST --store=DB [--workers=N] [--budget-steps=B] [--no-optimize]``
    Bulk-build a catalog into a durable store (``repro.store.ingest``):
    every database in the JSON manifest is constructed, fingerprinted,
    warmed with its queries, and persisted; ``--workers=N`` fans the
    per-database work out over worker processes with stats and spans
    merged at the join.  Prints a JSON ingestion report.
``trace NAME FORMULA [--jsonl=FILE]``
    Evaluate through the engine under a
    :class:`~repro.trace.TraceRecorder` and print the span tree
    (name, duration, counters, status).  ``--jsonl=FILE`` also writes
    the trace in the JSONL schema documented in ``docs/tracing.md``.

``python -m repro --version`` prints the library version and exits.

Any command also accepts a global ``--trace=FILE`` flag: the whole run
is recorded and the spans are written to ``FILE`` as JSONL on exit,
e.g. ``python -m repro engine rado "exists x. R1(x, x)" --trace=t.jsonl``.
"""

from __future__ import annotations

import os
import sys

from . import __version__
from .util.cli import parse_number


def _builtin_hsdb(name: str):
    from .graphs import mixed_components_hsdb, triangles_hsdb
    from .symmetric import infinite_clique, rado_hsdb

    builders = {
        "clique": infinite_clique,
        "rado": rado_hsdb,
        "triangles": triangles_hsdb,
        "k3k2": mixed_components_hsdb,
    }
    if name not in builders:
        raise SystemExit(
            f"unknown database {name!r}; choose from {sorted(builders)}")
    return builders[name]()


def cmd_info(args: list[str]) -> int:
    """``info`` — library overview and paper reference."""
    print(f"recdb {__version__} — computable queries over recursive "
          "(infinite) relational databases")
    print("Reproduction of: Hirst & Harel, 'Completeness Results for "
          "Recursive Data Bases', PODS 1993 / JCSS 52 (1996).")
    print("\nSubpackages: core, logic, symmetric, qlhs, finite, fcf, "
          "machines, bp, graphs, engine, serve")
    print("Docs: README.md, DESIGN.md, EXPERIMENTS.md; runnable demos "
          "in examples/")
    return 0


def cmd_classes(args: list[str]) -> int:
    """``classes TYPE RANK`` — count ≅ₗ equivalence classes."""
    from .core import count_local_types

    usage = "usage: python -m repro classes TYPE RANK (e.g. classes 2,1 2)"
    if len(args) != 2:
        raise SystemExit(usage)
    signature = tuple(parse_number("TYPE", a, int, usage)
                      for a in args[0].split(","))
    rank = parse_number("RANK", args[1], int, usage)
    total = count_local_types(signature, rank)
    print(f"type {signature}, rank {rank}: {total} classes of local "
          "isomorphism")
    return 0


def cmd_tree(args: list[str]) -> int:
    """``tree NAME [DEPTH]`` — print a characteristic tree."""
    usage = "usage: python -m repro tree NAME [DEPTH]"
    if not args:
        raise SystemExit(usage)
    hsdb = _builtin_hsdb(args[0])
    depth = parse_number("DEPTH", args[1], int, usage) if len(args) > 1 else 2
    print(f"{hsdb.name}: characteristic tree to depth {depth}")
    for n in range(depth + 1):
        level = hsdb.tree.level(n)
        print(f"  T^{n} ({len(level)} classes)")
        for p in level:
            print("   ", "  " * n, p)
    return 0


def cmd_eval(args: list[str]) -> int:
    """``eval NAME FORMULA`` — FO sentence over a built-in hs-r-db."""
    from .logic import holds_sentence, parse

    if len(args) != 2:
        raise SystemExit('usage: python -m repro eval NAME "SENTENCE"')
    hsdb = _builtin_hsdb(args[0])
    sentence = parse(args[1])
    answer = holds_sentence(hsdb, sentence)
    print(f"{hsdb.name} |= {args[1]}  ->  {answer}")
    return 0


def cmd_engine(args: list[str]) -> int:
    """``engine NAME FORMULA [--repeat=N] [--stats] [--no-optimize]
    [--no-compile]`` — engine route (optimizer + compiled backend on
    by default; the flags select the naive interpreted path)."""
    from .engine import Engine, plan_from_sentence
    from .logic import parse

    usage = ('usage: python -m repro engine NAME "SENTENCE" '
             "[--repeat=N] [--stats] [--no-optimize] [--no-compile]")
    flags = [a for a in args if a.startswith("--")]
    positional = [a for a in args if not a.startswith("--")]
    repeat = 1
    show_stats = False
    optimize = True
    compiled = True
    for flag in flags:
        if flag == "--stats":
            show_stats = True
        elif flag == "--no-optimize":
            optimize = False
        elif flag == "--no-compile":
            compiled = False
        elif flag.startswith("--repeat="):
            repeat = parse_number("--repeat", flag.split("=", 1)[1], int,
                                  usage)
        else:
            raise SystemExit(f"unknown flag {flag!r}")
    if "--repeat" in positional:
        # Allow the space-separated form ``--repeat N`` too.
        raise SystemExit("write --repeat=N (e.g. --repeat=100)")
    if len(positional) != 2:
        raise SystemExit(usage)
    if repeat < 1:
        raise SystemExit("--repeat must be >= 1")

    hsdb = _builtin_hsdb(positional[0])
    sentence = parse(positional[1])
    engine = Engine(hsdb, optimize=optimize, compiled=compiled)
    plan = plan_from_sentence(sentence, hsdb.signature)
    answer = engine.holds(plan)
    for __ in range(repeat - 1):
        answer = engine.holds(plan)
    print(f"{hsdb.name} |= {positional[1]}  ->  {answer}")
    print(f"fingerprint: {engine.fingerprint}")
    if show_stats:
        print(engine.stats().format())
    return 0


def cmd_trace(args: list[str]) -> int:
    """``trace NAME FORMULA [--jsonl=FILE]`` — traced engine run."""
    from .engine import Engine, plan_from_sentence
    from .logic import parse
    from .trace import TraceRecorder, recording

    flags = [a for a in args if a.startswith("--")]
    positional = [a for a in args if not a.startswith("--")]
    jsonl = None
    for flag in flags:
        if flag.startswith("--jsonl="):
            jsonl = flag.split("=", 1)[1]
        else:
            raise SystemExit(f"unknown flag {flag!r}")
    if len(positional) != 2:
        raise SystemExit(
            'usage: python -m repro trace NAME "SENTENCE" [--jsonl=FILE]')

    hsdb = _builtin_hsdb(positional[0])
    sentence = parse(positional[1])
    engine = Engine(hsdb)
    plan = plan_from_sentence(sentence, hsdb.signature)
    recorder = TraceRecorder()
    with recording(recorder):
        verdict = engine.eval(plan)
    print(f"{hsdb.name} |= {positional[1]}  ->  {verdict!r}")
    trace = recorder.trace()
    print(trace.format_tree())
    if jsonl:
        trace.write_jsonl(jsonl)
        print(f"wrote {len(trace)} spans to {jsonl}")
    return 0


def cmd_serve(args: list[str]) -> int:
    """``serve`` — run the HTTP/JSON serving tier until interrupted."""
    import json

    from .serve import default_config, load_config, serve_forever

    usage = ("usage: python -m repro serve [--config=FILE] [--host=H] "
             "[--port=P] [--store=DB] [--print-config]")
    config_path = None
    host = None
    port = None
    store = None
    print_config = False
    for arg in args:
        if arg.startswith("--config="):
            config_path = arg.split("=", 1)[1]
        elif arg.startswith("--host="):
            host = arg.split("=", 1)[1]
        elif arg.startswith("--port="):
            port = parse_number("--port", arg.split("=", 1)[1], int, usage)
        elif arg.startswith("--store="):
            store = arg.split("=", 1)[1]
        elif arg == "--print-config":
            print_config = True
        else:
            raise SystemExit(usage)
    config = (load_config(config_path) if config_path is not None
              else default_config())
    if print_config:
        print(json.dumps(config.to_dict(), indent=2, sort_keys=True))
        return 0
    return serve_forever(config, host=host, port=port, store=store)


def cmd_ingest(args: list[str]) -> int:
    """``ingest MANIFEST --store=DB`` — bulk-build databases into a
    durable store across worker processes."""
    import json

    from .store.ingest import ManifestError, ingest_manifest, load_manifest
    from .trace import limits

    usage = ("usage: python -m repro ingest MANIFEST --store=DB "
             "[--workers=N] [--budget-steps=B] [--no-optimize]")
    manifest_path = None
    store = None
    workers = 1
    budget_steps = limits.INGEST_DB
    optimize = True
    for arg in args:
        if arg.startswith("--store="):
            store = arg.split("=", 1)[1]
        elif arg.startswith("--workers="):
            workers = parse_number("--workers", arg.split("=", 1)[1], int,
                                   usage)
        elif arg.startswith("--budget-steps="):
            budget_steps = parse_number(
                "--budget-steps", arg.split("=", 1)[1], int, usage)
        elif arg == "--no-optimize":
            optimize = False
        elif not arg.startswith("--") and manifest_path is None:
            manifest_path = arg
        else:
            raise SystemExit(usage)
    if manifest_path is None or store is None:
        raise SystemExit(usage)
    if workers < 1:
        raise SystemExit("--workers must be >= 1")
    try:
        manifest = load_manifest(manifest_path)
    except ManifestError as exc:
        raise SystemExit(str(exc)) from None
    report = ingest_manifest(manifest, store, workers=workers,
                             budget_steps=budget_steps,
                             optimize=optimize)
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    return 0


def cmd_check(args: list[str]) -> int:
    """``check`` — differential & metamorphic frontend fuzzing."""
    from .check.runner import main as check_main

    return check_main(args)


COMMANDS = {
    "info": cmd_info,
    "classes": cmd_classes,
    "tree": cmd_tree,
    "eval": cmd_eval,
    "engine": cmd_engine,
    "trace": cmd_trace,
    "check": cmd_check,
    "serve": cmd_serve,
    "ingest": cmd_ingest,
}


def main(argv: list[str] | None = None) -> int:
    """Dispatch to a subcommand (handling the global ``--trace=FILE``)."""
    argv = list(sys.argv[1:] if argv is None else argv)
    trace_file = None
    remaining = []
    for arg in argv:
        if arg.startswith("--trace="):
            trace_file = arg.split("=", 1)[1]
        else:
            remaining.append(arg)
    argv = remaining
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__)
        return 0
    if argv[0] in ("--version", "-V"):
        print(f"recdb {__version__}")
        return 0
    command, *rest = argv
    if command not in COMMANDS:
        print(f"unknown command {command!r}\n"
              f"usage: python -m repro COMMAND [ARGS...]\n"
              f"commands: {', '.join(sorted(COMMANDS))} "
              "(python -m repro --help for details)", file=sys.stderr)
        return 2
    if trace_file is None:
        return COMMANDS[command](rest)

    from .trace import TraceRecorder, recording
    recorder = TraceRecorder()
    with recording(recorder):
        status = COMMANDS[command](rest)
    trace = recorder.trace()
    trace.write_jsonl(trace_file)
    print(f"trace: {len(trace)} spans -> {trace_file}", file=sys.stderr)
    return status


if __name__ == "__main__":
    try:
        status = main()
        # Flush here, so a reader that went away (``... | head -1``) is
        # caught below rather than at interpreter exit.
        sys.stdout.flush()
    except BrokenPipeError:
        # Point stdout at devnull, so the exit-time flush of what is
        # still buffered cannot raise again, and fail without a
        # traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 1
    raise SystemExit(status)
