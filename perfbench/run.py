#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see perfbench/README.md).

Usage, from the repository root:

    python3 perfbench/run.py --workload <serve_approx|exact_scan|build_and_score>
                             --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (and the engine it links) with CMake in Release mode under
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then runs one
workload. The binary's standard output is passed through, except that its
last line, the JSON result, is completed against BENCHMARK.json first. Exits
non-zero without a result when the engine sources are missing, the build
fails or the run prints no result.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("serve_approx", "exact_scan", "build_and_score")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_digest(root):
    """SHA-256 over the files the benchmark binary is built from."""
    h = hashlib.sha256()
    files = [root / "CMakeLists.txt"]
    for d in ("src", "bench", "perfbench"):
        files += sorted(p for p in (root / d).rglob("*") if p.is_file())
    for p in files:
        h.update(str(p.relative_to(root)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_state(root):
    """(HEAD, dirty flag) of the measured tree, or "unknown" outside git."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, check=True)
        status = subprocess.run(["git", "status", "--porcelain"], cwd=root,
                                capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown", "unknown"
    return head.stdout.strip(), "1" if status.stdout.strip() else "0"


def build(root, build_dir):
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(root / "perfbench"), "-B",
                      str(build_dir), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))


def complete_result(root, trace, result_line):
    """Checks the binary's result against BENCHMARK.json and returns the
    final JSON line. A per-layer metric the workload's layers do not reach
    reads 0; a metric BENCHMARK.json does not declare, or one with another
    unit, fails the run."""
    bench = json.loads((root / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"]
                for m in bench["per_layer" if trace else "end_to_end"]}
    result = json.loads(result_line)
    metrics = result["metrics"]
    for name, metric in metrics.items():
        if declared.get(name) != metric["unit"]:
            print(f"  FAILED: metric {name} ({metric['unit']}) is not declared",
                  flush=True)
            result["attempted"] += 1
            result["failed"] += 1
            result["correct"] = False
    missing = set(declared) - set(metrics)
    if missing and not trace:
        print(f"  FAILED: metrics not reported: {sorted(missing)}", flush=True)
        result["attempted"] += 1
        result["failed"] += 1
        result["correct"] = False
    for name in missing:
        metrics[name] = {"value": 0, "unit": declared[name]}
    result["metrics"] = {name: metrics[name] for name in declared}
    return json.dumps(result)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    root = Path(__file__).resolve().parent.parent
    for needed in ("BENCHMARK.json", "CMakeLists.txt", "src", "bench/harness.cc"):
        if not (root / needed).exists():
            fail(f"engine sources not found ({needed} is missing under "
                 f"{root}); run from a full checkout")

    out_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not out_dir.is_absolute():
        out_dir = root / out_dir
    build_dir = out_dir / "perfbench"
    build(root, build_dir)

    # The server socket lives in the work dir; keep its path short and
    # relative to the checkout (AF_UNIX paths are limited to 107 bytes).
    work_dir = build_dir / f"run-{os.getpid()}"
    trace_dir = build_dir / "traces"
    work_dir.mkdir(parents=True, exist_ok=True)
    trace_dir.mkdir(parents=True, exist_ok=True)
    head, dirty = git_state(root)
    cmd = [str(build_dir / "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", os.path.relpath(work_dir, root),
           "--trace-dir", os.path.relpath(trace_dir, root),
           "--git-head", head, "--git-dirty", dirty,
           "--source-digest", source_digest(root)]
    try:
        done = subprocess.run(cmd, cwd=root, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = done.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]), flush=True)
    if not lines[-1].startswith("{"):
        print(lines[-1], flush=True)
        fail(f"the run printed no result (exit code {done.returncode})")
    final = complete_result(root, args.trace == "1", lines[-1])
    print(final, flush=True)
    sys.exit(0 if json.loads(final)["correct"] else 1)


if __name__ == "__main__":
    main()
