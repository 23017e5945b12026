"""Per-layer metrics of one traced window, and the table describing them.

Spans come from ``traced_serve.py`` as ``(id, parent, request, name,
start_ns, end_ns)`` rows; only requests that ran wholly inside the
measured window count.  A span's *self time* is its duration minus the
part of it that its child spans cover.  Counters are deltas of ``GET
/stats`` taken at the two ends of the window.
"""

from __future__ import annotations

import math
from collections import defaultdict

#: ``(name, unit, better, layer module, end-to-end metric it should
#: move, workload where it should move it)``, in BENCHMARK.json order.
#: Every traced run reports every metric; one whose layer does not run
#: on the workload reads 0 with 0 samples.
LAYER_METRICS = (
    ("serve.outside_us", "us", "lower",
     "serve.server", "throughput_qps", "serve_hot"),
    ("serve.wall_us", "us", "lower",
     "serve.server", "latency_p50_ms", "serve_cold"),
    ("protocol.read_request_us", "us", "lower",
     "serve.protocol", "latency_p50_ms", "serve_hot"),
    ("tenants.admit_us", "us", "lower",
     "serve.tenants", "throughput_qps", "serve_hot"),
    ("catalog.compile_us", "us", "lower",
     "serve.catalog, engine.frontends", "latency_p50_ms", "serve_cold"),
    ("catalog.memo_hit_rate", "ratio", "higher",
     "serve.catalog", "throughput_qps", "serve_hot"),
    ("cache.plan_hit_rate", "ratio", "higher",
     "engine.cache", "throughput_qps", "serve_hot"),
    ("cache.result_hit_rate", "ratio", "higher",
     "engine.cache", "throughput_qps", "serve_hot"),
    ("cache.result_entries", "count", "lower",
     "engine.cache", "server_rss_mb", "serve_cold"),
    ("optimize.prepare_us", "us", "lower",
     "engine.optimize, engine.plan", "throughput_qps", "serve_cold"),
    ("optimize.prepare_p99_us", "us", "lower",
     "engine.optimize", "latency_p99_ms", "serve_cold"),
    ("optimize.rewrites_per_plan", "count", "lower",
     "engine.optimize", "throughput_qps", "serve_cold"),
    ("compile.compile_plan_us", "us", "lower",
     "engine.compile", "latency_p50_ms", "serve_cold"),
    ("compile.compiles_per_query", "count", "lower",
     "engine.compile", "throughput_qps", "serve_cold"),
    ("executor.eval_us", "us", "lower",
     "engine.executor", "latency_p50_ms", "serve_cold"),
    ("executor.unknown_frac", "ratio", "lower",
     "engine.executor", "throughput_qps", "serve_store"),
    ("oracle.questions_per_query", "count", "lower",
     "symmetric", "latency_p50_ms", "serve_cold"),
    ("store.lookup_us", "us", "lower",
     "store", "latency_p50_ms", "serve_store"),
    ("store.put_us", "us", "lower",
     "store", "latency_p99_ms", "serve_store"),
    ("store.replay_hit_rate", "ratio", "higher",
     "store", "throughput_qps", "serve_store"),
    ("store.bytes_per_row", "B", "lower",
     "store", "setup_s", "serve_store"),
    ("store.load_s", "s", "lower",
     "store", "setup_s", "serve_store"),
    ("shard.eval_batch_ms", "ms", "lower",
     "engine.shard", "latency_p50_ms", "serve_batch"),
    ("shard.worker_rss_mb", "MB", "lower",
     "engine.shard", "server_rss_mb", "serve_batch"),
    ("trace.spans_per_request", "count", "lower",
     "trace", "throughput_qps", "serve_hot"),
    ("trace_overhead_frac", "ratio", "lower",
     "benchmark", "-", "every workload"),
)


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-quantile (``0 < q <= 1``) of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _quantile(values_ns, q: float = 0.5, scale: float = 1e-3) -> tuple:
    """``(q-quantile, samples)`` of nanosecond values times ``scale``
    (microseconds by default); 0 without samples."""
    values = [value * scale for value in values_ns]
    return (percentile(values, q) if values else 0.0), len(values)


def _ratio(part, whole) -> tuple:
    return (part / whole if whole else 0.0), whole


def _covered(intervals) -> int:
    """Nanoseconds covered by the union of ``(start, end)`` intervals."""
    covered = reach = 0
    for start, end in sorted(intervals):
        start = max(start, reach)
        if end > start:
            covered += end - start
            reach = end
    return covered


def _counters(stats: dict) -> dict:
    """The ``GET /stats`` counters whose window deltas the metrics use."""
    cache = stats["global"]["shared_cache"]
    optimizer = [view["optimizer"] for views in stats["databases"].values()
                 for view in views.values()]
    verdicts = [tenant["verdicts"] for tenant in stats["tenants"].values()]
    return {
        "plan_hits": cache["plans"]["hits"],
        "plan_lookups": cache["plans"]["hits"] + cache["plans"]["misses"],
        "result_hits": cache["results"]["hits"],
        "result_lookups": (cache["results"]["hits"]
                           + cache["results"]["misses"]),
        # Every engine reports the one optimizer memo they share.
        "optimizations": max((o["optimizations"] for o in optimizer),
                             default=0),
        "rewrites": max((sum(o["rewrites"].values()) for o in optimizer),
                        default=0),
        "compiles": sum(o["compiles"] for o in optimizer),
        "unknown": sum(v.get("unknown", 0) for v in verdicts),
        "verdicts": sum(sum(v.values()) for v in verdicts),
        "oracle_questions": stats["global"]["oracle_questions"],
        "equiv_calls": stats["perfbench"]["equiv_calls"],
        "recorder_spans": stats["perfbench"]["recorder_spans"],
        "replay_hits": stats.get("store", {}).get("replay_hits", 0),
    }


def compute(rows, window, before: dict, after: dict, *,
            untraced_qps: float, store_bytes: int, batch: bool) -> dict:
    """Every per-layer metric as ``name -> (value, samples)``."""
    requests = {row[2] for row in rows
                if row[3] == "serve.request"
                and window.start_ns <= row[4] and row[5] <= window.end_ns}
    named, children = defaultdict(list), defaultdict(list)
    for row in rows:
        if row[2] in requests:
            named[row[3]].append(row)
            children[row[1]].append(row)

    def took(name: str) -> list:
        return [row[5] - row[4] for row in named[name]]

    def calls(row, name: str) -> bool:
        return any(child[3] == name for child in children[row[0]])

    first, last = _counters(before), _counters(after)
    delta = {key: last[key] - first[key] for key in last}
    queries = len(window.samples)
    served = [s for s in window.samples if "wall_us" in s.reply]
    admit: dict = defaultdict(int)
    for row in named["tenants.admit"] + named["tenants.settle"]:
        admit[row[2]] += row[5] - row[4]
    compiles = named["catalog.compile"]
    prepares = [row[5] - row[4] for row in named["optimize.prepared"]
                if calls(row, "optimize.optimize")]
    evals = [row[5] - row[4] - _covered((c[4], c[5]) for c in children[row[0]])
             for row in named["executor.eval"]]
    stored = after.get("store", {}).get("counts", {})
    loads = [row[5] - row[4] for row in rows
             if row[3] == "store.load_results"]
    # Batch members run in shard workers, whose oracle questions reach
    # /stats with the worker stats the coordinator absorbs; one
    # connection never overlaps two batches, so that count is exact.
    # /eval workloads overlap evaluations, which the per-engine count
    # can count twice, so they read the databases' own counters.
    questions = delta["oracle_questions"] if batch else delta["equiv_calls"]
    return {
        "serve.outside_us": _quantile(
            [s.done_ns - s.sent_ns - 1000 * s.reply["wall_us"]
             for s in served]),
        "serve.wall_us": _quantile([1000 * s.reply["wall_us"]
                                    for s in served]),
        "protocol.read_request_us": _quantile(took("protocol.read_request")),
        "tenants.admit_us": _quantile(list(admit.values())),
        "catalog.compile_us": _quantile(took("catalog.compile")),
        "catalog.memo_hit_rate": _ratio(
            sum(not calls(row, "catalog.lower_all") for row in compiles),
            len(compiles)),
        "cache.plan_hit_rate": _ratio(delta["plan_hits"],
                                      delta["plan_lookups"]),
        "cache.result_hit_rate": _ratio(delta["result_hits"],
                                        delta["result_lookups"]),
        "cache.result_entries": (
            after["global"]["shared_cache"]["results"]["size"], 1),
        "optimize.prepare_us": _quantile(prepares),
        "optimize.prepare_p99_us": _quantile(prepares, 0.99),
        "optimize.rewrites_per_plan": _ratio(delta["rewrites"],
                                             delta["optimizations"]),
        "compile.compile_plan_us": _quantile(took("compile.compile_plan")),
        "compile.compiles_per_query": _ratio(delta["compiles"], queries),
        "executor.eval_us": _quantile(evals),
        "executor.unknown_frac": _ratio(delta["unknown"], delta["verdicts"]),
        "oracle.questions_per_query": _ratio(questions, queries),
        "store.lookup_us": _quantile(took("store.lookup_verdict")),
        "store.put_us": _quantile(took("store.put_verdict")),
        "store.replay_hit_rate": _ratio(delta["replay_hits"],
                                        len(named["store.lookup_verdict"])),
        "store.bytes_per_row": _ratio(
            store_bytes, stored.get("values", 0) + stored.get("verdicts", 0)),
        "store.load_s": _quantile(loads, scale=1e-9),
        "shard.eval_batch_ms": _quantile(took("shard.eval_batch"),
                                         scale=1e-6),
        "shard.worker_rss_mb": (window.helpers_mb, 1),
        "trace.spans_per_request": _ratio(delta["recorder_spans"],
                                          len(requests)),
        "trace_overhead_frac": (1 - window.qps / untraced_qps, 2),
    }
