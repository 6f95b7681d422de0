#!/usr/bin/env python3
"""The repository's benchmark: build, run one workload, check, report.

    python3 perfbench/run.py --workload train|victims|serve --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first run configures and builds the
program and the benchmark harness from source (CMake, Release) into
$CARGO_TARGET_DIR, or .bench_build when that is unset; later runs only
rebuild what changed. The harness (perfbench/src/main.cpp) runs the
workload and prints a JSON object; this script prints every metric by
name with its unit and sample count, the output checks and the host and
build fingerprint, and as its LAST line the result object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics of BENCHMARK.json (--trace 0) or its
per-layer metrics (--trace 1). --self-test builds and runs the
benchmark's own tests (perfbench/tests/).
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(target):
    """Configure once, then build `target`; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        raise SystemExit("perfbench: program sources not found next to "
                         "perfbench/ (expected CMakeLists.txt and src/)")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", out, *generator,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "--target", target, "-j",
                    str(os.cpu_count() or 1)], stdout=sys.stderr, check=True)
    return os.path.join(out, target)


def source_digest():
    """SHA-256 over the program's build inputs (src/ and CMakeLists.txt),
    so a result names the code it measured even outside a git checkout."""
    h = hashlib.sha256()
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for base, dirs, names in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        files += [os.path.join(base, n) for n in sorted(names)]
    for path in files:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def clean_env():
    """The program's environment switches (tracing files, cache and fault
    settings) must not leak into a measured run."""
    return {k: v for k, v in os.environ.items() if not k.startswith("SMA_")}


def print_table(title, metrics):
    print(title)
    print(f"  {'metric':<28} {'value':>16} {'unit':<6} {'samples':>8}")
    for name, m in metrics.items():
        print(f"  {name:<28} {m['value']:>16.6g} {m['unit']:<6} "
              f"{m['samples']:>8}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    try:
        if args.self_test:
            binary = build("perfbench_selftest")
            return subprocess.run([binary], env=clean_env()).returncode
        if not args.workload:
            parser.error("--workload is required")
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        binary = build("perfbench")
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"perfbench: build failed: {e}")
        return 1
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log(f"perfbench: unknown workload {args.workload}")
        return 2

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=clean_env(), cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"perfbench: harness exited with {proc.returncode}")
        return 1
    detail = json.loads(lines[-1])
    detail["fingerprint"].update(
        {"seed": args.seed, "git_sha": git_sha(),
         "source_digest": source_digest()})

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    measured = detail["per_layer"] if args.trace else detail["end_to_end"]
    missing = [m["name"] for m in wanted
               if measured.get(m["name"], {}).get("unit") != m["unit"]]
    if missing:
        log(f"perfbench: harness did not report {missing} as specified")
        return 1

    fp = detail["fingerprint"]
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("host: " + ", ".join(f"{k}={v}" for k, v in fp.items()))
    print_table("end-to-end (untraced repetitions):", detail["end_to_end"])
    if args.trace:
        print_table("per-layer (traced windows):", detail["per_layer"])
        print("spans by self time (cat/name count total_s self_s):")
        for s in sorted(detail["spans"], key=lambda s: -s["self_s"])[:25]:
            print(f"  {s['cat'] + '/' + s['name']:<32} {s['count']:>9} "
                  f"{s['total_s']:>12.4f} {s['self_s']:>12.4f}")
    print(f"checks: correct={str(detail['correct']).lower()} "
          f"attempted={detail['attempted']} failed={detail['failed']}")
    for reason in detail["failures"]:
        print(f"  failed: {reason}")

    results = os.path.join(build_dir(), "results")
    os.makedirs(results, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results, name), "w") as f:
        json.dump(detail, f, indent=1)

    print(json.dumps({
        "correct": bool(detail["correct"]),
        "attempted": int(detail["attempted"]),
        "failed": int(detail["failed"]),
        "metrics": {m["name"]: {"value": measured[m["name"]]["value"],
                                "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
