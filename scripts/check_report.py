#!/usr/bin/env python3
"""Validate observability artifacts: Chrome traces, sma run reports and
bench results.

Four checks, combinable in one invocation (CI runs all of them):

  --trace FILE      FILE is Chrome trace-event JSON: a `traceEvents` list
                    of complete ("X") events with the keys Perfetto /
                    chrome://tracing need. By default the trace must be
                    non-empty (a traced run that recorded zero spans means
                    the instrumentation is broken).

  --report FILE     FILE is a unified run report of schema
                    sma-run-report-v1 (see src/obs/report.hpp).

  --bench FILE...   Each FILE is a BENCH_*.json bench artifact; when it
                    embeds a "report" object, that object must validate as
                    sma-run-report-v1. Guards against report-schema drift
                    in the bench trajectory.

Exits non-zero with a message naming the file and the violated rule.
"""

import argparse
import json
import sys

SCHEMA = "sma-run-report-v1"

TRACE_EVENT_KEYS = ("name", "cat", "ph", "ts", "dur", "pid", "tid")
RUN_KEYS = ("name", "threads", "tracing")
FLOW_ROW_KEYS = (
    "design",
    "global_place_seconds",
    "legalize_seconds",
    "detailed_place_seconds",
    "route_seconds",
    "negotiation_seconds",
    "wirelength",
    "vias",
    "overflow",
    "fallback_routes",
)
TRAIN_KEYS = (
    "seconds",
    "seconds_per_epoch",
    "epochs",
    "queries_seen",
    "final_loss",
    "arena_allocs_total",
    "arena_bytes_pinned",
)
REPLICA_KEYS = (
    "clones_created",
    "leases",
    "max_on_loan",
    "wait_seconds",
    "occupancy_seconds",
    "timeouts",
    "arena_allocs",
    "arena_bytes_pinned",
)
SERVE_KEYS = (
    "submitted",
    "answered",
    "failed",
    "empty",
    "batches",
)
SPLIT_CACHE_KEYS = (
    "hits",
    "misses",
    "disk_hits",
    "disk_spills",
    "disk_corrupt",
    "disk_dir",
)
DURABILITY_KEYS = (
    "faults_injected",
    "checkpoint_saves",
    "checkpoint_resumes",
    "checkpoint_corrupt_discards",
)
KERNEL_KEYS = ("isa", "blocked_calls", "pack_bytes")
METRICS_KEYS = ("counters", "histograms")
HISTOGRAM_KEYS = ("count", "sum", "buckets")


def fail(path, message):
    sys.exit(f"{path}: {message}")


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as e:
        fail(path, f"cannot read: {e}")
    except json.JSONDecodeError as e:
        fail(path, f"not valid JSON: {e}")


def require_keys(path, obj, keys, context):
    for key in keys:
        if key not in obj:
            fail(path, f"{context} is missing key {key!r}")


def check_trace(path):
    trace = load_json(path)
    if not isinstance(trace, dict):
        fail(path, "trace root must be a JSON object")
    if "traceEvents" not in trace:
        fail(path, "missing 'traceEvents'")
    events = trace["traceEvents"]
    if not isinstance(events, list):
        fail(path, "'traceEvents' must be a list")
    if not events:
        fail(path, "trace recorded zero events (tracing not enabled?)")
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            fail(path, f"traceEvents[{i}] is not an object")
        require_keys(path, event, TRACE_EVENT_KEYS, f"traceEvents[{i}]")
        if event["ph"] != "X":
            fail(path, f"traceEvents[{i}]: expected complete events "
                       f"(ph='X'), got ph={event['ph']!r}")
        for key in ("ts", "dur"):
            if not isinstance(event[key], (int, float)):
                fail(path, f"traceEvents[{i}].{key} is not a number")
        if event["dur"] < 0:
            fail(path, f"traceEvents[{i}] has negative duration")
    print(f"{path}: ok ({len(events)} trace events)")


def check_report_object(path, report, context="report"):
    if not isinstance(report, dict):
        fail(path, f"{context} must be a JSON object")
    if report.get("schema") != SCHEMA:
        fail(path, f"{context}: schema is {report.get('schema')!r}, "
                   f"expected {SCHEMA!r}")
    require_keys(path, report, ("run", "flow", "train", "replicas",
                                "split_cache", "durability", "kernels",
                                "metrics"), context)
    require_keys(path, report["run"], RUN_KEYS, f"{context}.run")
    if not isinstance(report["flow"], list):
        fail(path, f"{context}.flow must be a list")
    for i, row in enumerate(report["flow"]):
        require_keys(path, row, FLOW_ROW_KEYS, f"{context}.flow[{i}]")
    if report["train"] is not None:
        require_keys(path, report["train"], TRAIN_KEYS, f"{context}.train")
    if report["replicas"] is not None:
        require_keys(path, report["replicas"], REPLICA_KEYS,
                     f"{context}.replicas")
    if report.get("serve") is not None:
        require_keys(path, report["serve"], SERVE_KEYS, f"{context}.serve")
    require_keys(path, report["split_cache"], SPLIT_CACHE_KEYS,
                 f"{context}.split_cache")
    require_keys(path, report["durability"], DURABILITY_KEYS,
                 f"{context}.durability")
    require_keys(path, report["kernels"], KERNEL_KEYS, f"{context}.kernels")
    require_keys(path, report["metrics"], METRICS_KEYS, f"{context}.metrics")
    for name, hist in report["metrics"]["histograms"].items():
        require_keys(path, hist, HISTOGRAM_KEYS,
                     f"{context}.metrics.histograms[{name!r}]")
        if not isinstance(hist["buckets"], list):
            fail(path, f"{context}.metrics.histograms[{name!r}].buckets "
                       "must be a list")


def check_report(path):
    check_report_object(path, load_json(path))
    print(f"{path}: ok ({SCHEMA})")


def check_bench(path):
    bench = load_json(path)
    if not isinstance(bench, dict):
        fail(path, "bench artifact root must be a JSON object")
    if "report" not in bench:
        fail(path, "bench artifact has no embedded 'report' — report-schema "
                   "drift (benches must attach an sma run report)")
    check_report_object(path, bench["report"], context="report")
    print(f"{path}: ok (embedded {SCHEMA})")


BENCH_TRAIN_KEYS = ("fused_steady_allocs", "fused_arena_bytes",
                    "fused_steady_allocs_per_query")
BENCH_FLOW_KEYS = ("designs", "summary", "deterministic")
BENCH_FLOW_RUN_KEYS = ("threads", "seconds", "global_place_seconds",
                       "route_seconds", "negotiation_seconds")
BENCH_SERVE_KEYS = ("clients", "attack", "identity_ok", "alloc_free",
                    "num_queries", "host_concurrency")
BENCH_SERVE_ROW_KEYS = ("clients", "queries_per_sec", "seconds",
                        "steady_clones", "steady_arena_allocs", "identical",
                        "serve_p50_us", "serve_p99_us")


def gate_train(path, train):
    require_keys(path, train, BENCH_TRAIN_KEYS, "train bench")
    if train["fused_steady_allocs"] != 0:
        fail(path, "nonzero steady-state arena allocs")


def gate_flow(path, flow):
    require_keys(path, flow, BENCH_FLOW_KEYS, "flow bench")
    if flow["deterministic"] is not True:
        fail(path, "layouts differ across thread counts")
    if flow["summary"]["measured_counts"] < 2:
        # deterministic=true is vacuous unless a pooled run was actually
        # compared against the serial one; CI runners have 2+ cores, so a
        # collapsed sweep means a broken gate.
        fail(path, "only one thread count measured — the cross-thread "
                   "determinism gate did not run")
    if not flow["designs"]:
        fail(path, "no designs measured")
    for design in flow["designs"]:
        require_keys(path, design, ("identical_across_threads", "runs",
                                    "overflow"), "flow design")
        if design["identical_across_threads"] is not True:
            fail(path, "non-identical layouts across thread counts")
        for run in design["runs"]:
            require_keys(path, run, BENCH_FLOW_RUN_KEYS, "flow run")


def gate_serve(path, serve):
    require_keys(path, serve, BENCH_SERVE_KEYS, "serve bench")
    if not serve["clients"]:
        fail(path, "no client counts measured")
    for row in serve["clients"]:
        require_keys(path, row, BENCH_SERVE_ROW_KEYS, "serve clients row")
    require_keys(path, serve["attack"], ("queries_per_sec",), "serve attack row")
    if serve["identity_ok"] is not True:
        fail(path, "served selections differ from batch-1 attack()")
    if serve["alloc_free"] is not True:
        fail(path, "replica clones or arena allocs after the fleet warm-up")
    if serve["report"].get("serve") is None:
        fail(path, "report lost its serve section")


BENCH_GATES = {"train": gate_train, "flow": gate_flow, "serve": gate_serve}


def check_bench_gates(path):
    bench = load_json(path)
    if not isinstance(bench, dict):
        fail(path, "bench artifact root must be a JSON object")
    gate = BENCH_GATES.get(bench.get("bench"))
    if gate is not None:
        gate(path, bench)
    print(f"{path}: ok (bench gates)")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace", help="Chrome trace-event JSON to validate")
    parser.add_argument("--report", help="run-report JSON to validate")
    parser.add_argument("--bench", nargs="*", default=[],
                        help="BENCH_*.json artifacts whose embedded report "
                             "must validate")
    parser.add_argument("--bench-gates", nargs="*", default=[],
                        help="BENCH_*.json artifacts that must parse and "
                             "pass their bench's gates")
    args = parser.parse_args()
    if not (args.trace or args.report or args.bench or args.bench_gates):
        parser.error("nothing to check: pass --trace, --report, --bench or "
                     "--bench-gates")
    if args.trace:
        check_trace(args.trace)
    if args.report:
        check_report(args.report)
    for path in args.bench:
        check_bench(path)
    for path in args.bench_gates:
        check_bench_gates(path)


if __name__ == "__main__":
    main()
