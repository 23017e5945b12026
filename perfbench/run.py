"""The served-traffic benchmark: four workloads, per-layer timings.

Run from the repository root::

    python3 perfbench/run.py --workload serve_cold --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10
    python3 perfbench/run.py --self-test

A run starts ``python -m repro serve`` as a separate process -- so the
load generator never shares the server's interpreter lock -- drives it
over HTTP from this process with a closed loop of at most ``nproc``
client threads, checks every answer against the reference interpreter,
and prints every metric with its unit and sample count.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 1 when an
operation failed (a non-200 reply, a refusal, an UNKNOWN(deadline) or
a verdict other than the reference's) or the run could not finish, and
2 outside a repository checkout.

``--trace 0`` reports the end-to-end metrics.  The server is set up
:data:`SETUPS` times -- ``setup_s`` is the median, from launching the
server until its warm-up pass is done -- and the last set-up serves the
measured window of ``--seconds``.

``--trace 1`` reports the per-layer metrics of ``layers.py``: one
untraced window, then the same seed against ``traced_serve.py`` with
the same process layout, each window half of ``--seconds`` so that a
traced run takes as long as an untraced one.  The traced window gives
the per-layer numbers; the throughput gap between the two is
``trace_overhead_frac``.

Inputs and expected verdicts: ``workloads.py``.  Server processes:
``serverproc.py``.  Load: ``load.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import layers
import load
from serverproc import ServerFailure, ServerProcess

HERE = os.path.dirname(os.path.abspath(__file__))

#: The workloads, in BENCHMARK.json order.
WORKLOADS = ("serve_hot", "serve_cold", "serve_store", "serve_batch")

#: ``(name, unit)`` of the end-to-end metrics, in BENCHMARK.json order.
END_TO_END = (
    ("throughput_qps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("setup_s", "s"),
    ("server_rss_mb", "MB"),
)

#: Server set-ups per ``--trace 0`` run; ``setup_s`` is their median.
SETUPS = 3


class RunFailed(RuntimeError):
    """The run has no numbers to report."""


@dataclass
class Window:
    """One measured window: the samples done by its deadline, and the
    server's peak memory after a fixed amount of work."""

    start_ns: int
    end_ns: int
    samples: list
    rss_mb: float
    helpers_mb: float

    @property
    def qps(self) -> float:
        return len(self.samples) * 1e9 / (self.end_ns - self.start_ns)


class Bench:
    """One run: its inputs, work directory, servers and replies."""

    def __init__(self, workload: str, seed: int, seconds: float, root: str):
        self.name, self.seed, self.seconds = workload, seed, seconds
        self.nproc = len(os.sched_getaffinity(0))
        self.workdir = os.path.join(root, ".bench_work",
                                    f"{workload}-{seed}-{os.getpid()}")
        # The servers' temporary files (the multiprocessing sockets,
        # sqlite spill files) stay inside the checkout too.
        os.makedirs(self.path("tmp"))
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
                        PYTHONHASHSEED="0", TMPDIR=self.path("tmp"))
        self.samples: list[load.Sample] = []
        self.pristine: str | None = None
        self._servers: list[ServerProcess] = []
        self._stores = 0

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def prepare(self) -> None:
        """Inputs, the pools' expected verdicts, and the store file."""
        import workloads

        self.config = workloads.server_config(self.nproc)
        self.config_path = self.path("serve.json")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(self.config, fh)
        self.reference = workloads.Reference(self.config)
        self.workload = workloads.build(
            self.name, self.seed, self.reference,
            min(workloads.CONNECTIONS, self.nproc))
        if self.workload.fill:
            self.pristine = self.path("filled.sqlite")
            server = self.launch(store=self.pristine)
            self.play(server, self.workload.fill)
            self.stop(server)

    def launch(self, *, traced: bool = False,
               store: str | None = None) -> ServerProcess:
        args = [f"--config={self.config_path}", "--port=0"]
        if store is not None:
            args.append(f"--store={store}")
        if traced:
            argv = [sys.executable, os.path.join(HERE, "traced_serve.py"),
                    self.path("spans.json"), *args]
        else:
            argv = [sys.executable, "-m", "repro", "serve", *args]
        server = ServerProcess(argv, env=self.env,
                               log_path=self.path("server.log"))
        self._servers.append(server)
        return server

    def stop(self, server: ServerProcess) -> None:
        self._servers.remove(server)
        server.stop()

    def play(self, server: ServerProcess, items) -> None:
        """Send every item once, keeping the replies for the check."""
        __, __, samples = load.run(server.addr, self.workload.endpoint,
                                   items, self.workload.connections,
                                   alive=server.alive)
        self.samples += samples
        if not server.alive():
            raise RunFailed("the server died during set-up")

    def setup(self, *, traced: bool = False):
        """A server that has played the warm-up: ``(server, seconds,
        store path)``.  The clock starts at the launch; restoring the
        store file comes before it."""
        store = None
        if self.pristine is not None:
            self._stores += 1
            store = self.path(f"store{self._stores}.sqlite")
            shutil.copyfile(self.pristine, store)
        started = time.monotonic()
        server = self.launch(traced=traced, store=store)
        self.play(server, self.workload.warmup)
        return server, time.monotonic() - started, store

    def measure(self, server: ServerProcess, seconds: float) -> Window:
        workload = self.workload
        memory: list[tuple[float, float]] = []

        def on_progress(finished: int) -> None:
            if finished >= workload.rss_after and not memory:
                memory.append(server.memory_mb())

        start, end, samples = load.run(
            server.addr, workload.endpoint, workload.measured(),
            workload.connections, seconds=seconds,
            alive=server.alive, on_progress=on_progress)
        if not server.alive():
            raise RunFailed("the server died during the measured window")
        self.samples += samples
        window = [s for s in samples if s.done_ns <= end]
        if not window:
            raise RunFailed("no query finished inside the measured window")
        return Window(start, end, window,
                      *(memory[0] if memory else server.memory_mb()))

    def check(self) -> tuple[int, int]:
        """``(attempted, failed)`` over every query this run sent."""
        failed = 0
        for sample in self.samples:
            reply = sample.reply
            if (sample.status != 200 or "status" not in reply
                    or reply["reason"] == "deadline"
                    or (reply["status"], reply["reason"])
                    != self.reference.verdict(sample.query)):
                failed += 1
        return len(self.samples), failed

    def log_tail(self) -> str:
        try:
            with open(self.path("server.log"), encoding="utf-8",
                      errors="replace") as fh:
                return fh.read()[-2000:]
        except OSError:
            return ""

    def close(self) -> None:
        for server in self._servers:
            server.kill()
        self._servers.clear()
        shutil.rmtree(self.workdir, ignore_errors=True)


def untraced(bench: Bench) -> dict:
    """The end-to-end metrics as ``name -> (value, samples)``.

    Throughput and both percentiles take every sample of the window,
    not medians over one-second slices of it, which spread wider from
    seed to seed: a batch answers eight members at once, so a slice's
    count moves in steps of eight, and a slice of ``serve_cold`` holds
    too few queries to average out their cost."""
    setups = []
    for attempt in range(SETUPS):
        server, seconds, __ = bench.setup()
        setups.append(seconds)
        if attempt < SETUPS - 1:
            bench.stop(server)
    window = bench.measure(server, bench.seconds)
    bench.stop(server)
    latencies = [(s.done_ns - s.sent_ns) / 1e6 for s in window.samples]
    count = len(latencies)
    return {
        "throughput_qps": (window.qps, count),
        "latency_p50_ms": (layers.percentile(latencies, 0.50), count),
        "latency_p99_ms": (layers.percentile(latencies, 0.99), count),
        "setup_s": (statistics.median(setups), len(setups)),
        "server_rss_mb": (window.rss_mb, 1),
    }


def traced(bench: Bench) -> dict:
    """The per-layer metrics as ``name -> (value, samples)``."""
    server, __, __ = bench.setup()
    plain = bench.measure(server, bench.seconds / 2)
    bench.stop(server)
    server, __, store = bench.setup(traced=True)
    before = load.get_json(server.addr, "/stats")
    window = bench.measure(server, bench.seconds / 2)
    after = load.get_json(server.addr, "/stats")
    store_bytes = sum(os.path.getsize(path)
                      for path in (store, f"{store}-wal")
                      if store and os.path.exists(path))
    bench.stop(server)
    with open(bench.path("spans.json"), encoding="utf-8") as fh:
        rows = json.load(fh)["spans"]
    return layers.compute(rows, window, before, after,
                          untraced_qps=plain.qps, store_bytes=store_bytes,
                          batch=bench.workload.endpoint == "/eval_batch")


def _commit(root: str) -> str:
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def _child(root: str, workload: str, seed: int, seconds: float,
           trace: int) -> tuple[int, str, str]:
    """One workload run in a child process: ``(exit code, out, err)``."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=900)
    return proc.returncode, proc.stdout, proc.stderr


def run_all(root: str, seed: int, seconds: float, trace: int) -> int:
    """Every workload in turn, each in its own process."""
    status = 0
    for workload in WORKLOADS:
        code, out, err = _child(root, workload, seed, seconds, trace)
        print(f"== {workload}")
        print(out, end="")
        print(err, end="", file=sys.stderr)
        status = status or code
    return status


def self_test(root: str) -> int:
    """One short run of every workload in both modes: each must emit
    exactly the metrics and units BENCHMARK.json names, with no failed
    operation, and BENCHMARK.json must match this harness."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = {
        "workloads": [w["name"] for w in spec["workloads"]],
        "end_to_end": [(m["name"], m["unit"]) for m in spec["end_to_end"]],
        "per_layer": [(m["name"], m["unit"], m["better"])
                      for m in spec["per_layer"]],
    }
    harness = {
        "workloads": list(WORKLOADS),
        "end_to_end": list(END_TO_END),
        "per_layer": [row[:3] for row in layers.LAYER_METRICS],
    }
    problems = [f"BENCHMARK.json {key} differ from the harness"
                for key in declared if declared[key] != harness[key]]
    for workload in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{workload} --trace {trace}"
            found = len(problems)
            code, out, err = _child(root, workload, 1, 1, trace)
            try:
                result = json.loads(out.strip().splitlines()[-1])
            except (IndexError, ValueError):
                problems.append(f"{label}: exit {code} without a result: "
                                f"{err.strip()[-500:]}")
                print(f"self-test {label}: FAILED")
                continue
            metrics = result.get("metrics", {})
            if (sorted(result) != ["attempted", "correct", "failed",
                                   "metrics"]
                    or code or not result["correct"] or result["failed"]
                    or result["attempted"] < 1):
                problems.append(f"{label}: exit {code}, "
                                f"{result.get('attempted')} attempted, "
                                f"{result.get('failed')} failed")
            if ({name: m["unit"] for name, m in metrics.items()}
                    != {m["name"]: m["unit"] for m in spec[section]}):
                problems.append(f"{label}: metrics or units differ from "
                                "BENCHMARK.json")
            if any(not isinstance(m["value"], (int, float))
                   for m in metrics.values()):
                problems.append(f"{label}: a metric value is not a number")
            print(f"self-test {label}: "
                  f"{'ok' if len(problems) == found else 'FAILED'}")
    for problem in problems:
        print(f"self-test: {problem}", file=sys.stderr)
    return 1 if problems else 0


def _terminate(signum, frame) -> None:
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Served-traffic benchmark of python -m repro serve.")
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: no src/repro here; run from the repository root",
              file=sys.stderr)
        return 2
    if args.self_test:
        return self_test(root)
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(root, args.seed, args.seconds, args.trace)
    sys.path.insert(0, os.path.join(root, "src"))
    signal.signal(signal.SIGTERM, _terminate)

    bench = Bench(args.workload, args.seed, args.seconds, root)
    try:
        bench.prepare()
        metrics = traced(bench) if args.trace else untraced(bench)
        attempted, failed = bench.check()
    except (RunFailed, ServerFailure) as exc:
        print(f"perfbench: {args.workload} seed {args.seed}: {exc}\n"
              f"{bench.log_tail()}", file=sys.stderr)
        return 1
    finally:
        bench.close()

    if args.trace:
        table = [row[:2] for row in layers.LAYER_METRICS]
        notes = {row[0]: f"  [{row[3]}; moves {row[4]} on {row[5]}]"
                 for row in layers.LAYER_METRICS}
    else:
        table, notes = END_TO_END, {}
    print(json.dumps({"provenance": {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": bench.nproc, "connections": bench.workload.connections,
        "python": platform.python_version(), "commit": _commit(root),
        "server_config": bench.config}}, sort_keys=True))
    for name, unit in table:
        value, samples = metrics[name]
        print(f"  {name:<28} {value:>14.4f} {unit:<6} n={samples}"
              f"{notes.get(name, '')}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": unit}
                    for name, unit in table}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
