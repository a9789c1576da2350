#!/usr/bin/env bash
# Builds Release and runs the execution-substrate micro benches, then
# rewrites BENCH_groupby.json with the measured throughput (plus speedups
# against the recorded seed baseline) so PRs track the perf trajectory.
# Thread-scaling variants (<bench>Parallel/<threads>) land in a separate
# "parallel_items_per_second" section keyed by thread count, alongside the
# machine's hardware_concurrency so scaling numbers can be read in context.
# Benches that report latency counters (bench_micro_server's p50_us and
# p99_us round-trip percentiles) land in "latency_us", keyed by bench name.
#
# Single runs on a noisy host swing ±15-25% even on untouched code paths,
# which makes one-shot deltas meaningless; --repeats N runs the whole suite
# N times and records the per-bench MEDIAN across runs (the JSON notes the
# repeat count). Use --repeats 5 or more before trusting any delta.
#
# --filter <regex> forwards a --benchmark_filter to every suite and prints
# the console tables instead of rewriting the JSON — a filtered run measures
# a subset, so recording it would silently overwrite suite-wide medians with
# partial data. Use it to iterate on one bench cheaply, then do a full
# --repeats run before trusting the recorded numbers.
#
# Usage: tools/run_benches.sh [--repeats N] [--filter REGEX] [build-dir]
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=build-bench
OUT=BENCH_groupby.json
REPEATS=1
FILTER=""

while [[ $# -gt 0 ]]; do
  case "$1" in
    --repeats)
      REPEATS="$2"
      shift 2
      ;;
    --repeats=*)
      REPEATS="${1#--repeats=}"
      shift
      ;;
    --filter)
      FILTER="$2"
      shift 2
      ;;
    --filter=*)
      FILTER="${1#--filter=}"
      shift
      ;;
    --*)
      echo "unknown option: $1" >&2
      exit 1
      ;;
    *)
      BUILD_DIR="$1"
      shift
      ;;
  esac
done
if ! [[ "$REPEATS" =~ ^[1-9][0-9]*$ ]]; then
  echo "invalid --repeats value: $REPEATS" >&2
  exit 1
fi

# The measured tree, read before the build compiles it: the full HEAD plus
# whether tracked files differ from it (the output JSON itself excluded,
# since every run rewrites it).
COMMIT=$(git rev-parse HEAD 2>/dev/null || echo unknown)
if [[ -n "$(git status --porcelain --untracked-files=no -- . ":!$OUT" \
            2>/dev/null)" ]]; then
  DIRTY=true
else
  DIRTY=false
fi

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$BUILD_DIR" -j"$(nproc)" \
  --target bench_micro_groupby bench_micro_sampling bench_micro_storage \
           bench_micro_governance bench_micro_server >/dev/null

if [[ -n "$FILTER" ]]; then
  for bench in bench_micro_groupby bench_micro_sampling bench_micro_storage \
               bench_micro_governance bench_micro_server; do
    echo "--- $bench (filter: $FILTER) ---"
    "$BUILD_DIR/$bench" --benchmark_filter="$FILTER" --benchmark_min_time=1
  done
  echo "filtered run: $OUT left untouched"
  exit 0
fi

TMP_DIR=$(mktemp -d)
trap 'rm -rf "$TMP_DIR"' EXIT

for ((rep = 0; rep < REPEATS; rep++)); do
  [[ "$REPEATS" -gt 1 ]] && echo "--- repeat $((rep + 1))/$REPEATS ---"
  "$BUILD_DIR"/bench_micro_groupby \
    --benchmark_format=json --benchmark_min_time=1 >"$TMP_DIR/groupby_$rep.json"
  "$BUILD_DIR"/bench_micro_sampling \
    --benchmark_format=json >"$TMP_DIR/sampling_$rep.json"
  "$BUILD_DIR"/bench_micro_storage \
    --benchmark_format=json >"$TMP_DIR/storage_$rep.json"
  "$BUILD_DIR"/bench_micro_governance \
    --benchmark_format=json --benchmark_min_time=1 \
    >"$TMP_DIR/governance_$rep.json"
  "$BUILD_DIR"/bench_micro_server \
    --benchmark_format=json >"$TMP_DIR/server_$rep.json"
done

python3 - "$TMP_DIR" "$REPEATS" "$OUT" "$COMMIT" "$DIRTY" <<'PY'
import json
import os
import statistics
import sys

tmp_dir, repeats, out_path = sys.argv[1], int(sys.argv[2]), sys.argv[3]
commit, dirty = sys.argv[4], sys.argv[5] == "true"

LATENCY_COUNTERS = ("p50_us", "p99_us")

def load_benchmarks(path):
    with open(path) as f:
        return json.load(f)["benchmarks"]

# Per-bench median across the repeated runs (all suites merged per run):
# throughput, and the latency counters of the benches that report them.
runs = []
latency_runs = []
for rep in range(repeats):
    run = {}
    latency = {}
    for suite in ("groupby", "sampling", "storage", "governance", "server"):
        for b in load_benchmarks(os.path.join(tmp_dir, f"{suite}_{rep}.json")):
            if "items_per_second" in b:
                run[b["name"]] = b["items_per_second"]
            counters = {c: b[c] for c in LATENCY_COUNTERS if c in b}
            if counters:
                latency[b["name"]] = counters
    runs.append(run)
    latency_runs.append(latency)
measured = {
    name: round(statistics.median(run[name] for run in runs if name in run))
    for name in runs[0]
}
latency_us = {
    name: {
        c: round(statistics.median(
            run[name][c] for run in latency_runs
            if c in run.get(name, {})), 1)
        for c in counters
    }
    for name, counters in latency_runs[0].items()
}
current = {k: v for k, v in measured.items() if "Parallel/" not in k}
parallel = {k: v for k, v in measured.items() if "Parallel/" in k}

try:
    with open(out_path) as f:
        doc = json.load(f)
except FileNotFoundError:
    doc = {}

baseline = doc.get("seed_baseline_items_per_second", {})
doc["description"] = (
    "Throughput (items/s) of the micro group-by/sampling benches, Release "
    "build, 500k-row OpenAQ table. seed_baseline is the pre-GroupIndex "
    "unordered_map<GroupKey, Acc> engine. parallel_items_per_second holds "
    "the thread-scaling variants (<bench>Parallel/<threads>, morsel "
    "scheduler); interpret them against hardware_concurrency. Values are "
    "per-bench medians across `repeats` runs of the whole suite "
    "(single-run host noise is ±15-25%; regenerate with "
    "tools/run_benches.sh --repeats 5). BM_MaskedGroupByRadix vs "
    "BM_MaskedGroupByMerge is the masked partition-slab path against the "
    "pre-SIMD chunk-merge baseline (radix off, scalar kernels) on the same "
    "data, both pinned to an 8-way fan-out (the merge only exists when "
    "aggregation chunks); BM_SelectionVectorSIMD vs ...Scalar isolates the vector "
    "selection kernels (host_cpu records the silicon they dispatched on). "
    "BM_ZoneMapSkipScan vs BM_FlatScanBaseline is the zone-map chunk-skip "
    "path against the same 1%-selectivity clustered scan with pruning "
    "disabled (skip_rate is reported as a bench counter); "
    "BM_OutOfCoreGroupBy streams the mmap-backed v2 file through the "
    "chunked scan vs the resident BM_InMemoryGroupByBaseline, and "
    "BM_OutOfCoreGroupByParallel/<threads> is the same scan through the "
    "morsel-parallel two-phase path (serial gid discovery, then waves of "
    "per-chunk decode + gid-range accumulation) across the thread ladder "
    "— bit-identical to the serial answer at every fan-out. "
    "BM_AdaptiveGroupByHugeG vs BM_AdaptiveGroupByHugeGForcedHash is the "
    "hash-vs-sort aggregation planner's headline: a 3M-row two-int-key "
    "table with ~2.7M distinct groups (24 packed key bits), auto planner "
    "(radix-sort discovery) against the planner pinned to hash on the same "
    "data; BM_AdaptiveGroupBySmallG guards the small-G regime, where auto "
    "must keep pricing at hash-path speed (planner decisions and "
    "estimated-vs-actual cardinality are reported as bench counters). "
    "BM_ExactGroupByGoverned vs BM_ExactGroupByUngoverned is the same "
    "group-by under a permissive QueryContext (deadline + budget checks at "
    "morsel boundaries) vs no governance; BM_GovernanceCheck and "
    "BM_FailpointInactive bound the per-checkpoint substrate cost. "
    "BM_Server* are full client round trips (queries/s, not rows/s, on the "
    "wall clock) through a live AqpServer over an AF_UNIX socket: BM_ServerCatalogHit answers "
    "from the warm shared sample, BM_ServerSampleBuild pays the catalog "
    "miss (stratified-sample build) every iteration, BM_ServerExact runs "
    "the exact engine over the 500k-row base table, and "
    "BM_ServerCatalogHitParallel/<threads> is aggregate throughput with "
    "one connection per benchmark thread. latency_us holds the per-bench "
    "median of the p50_us / p99_us round-trip counters the BM_Server* "
    "benches report."
)
doc["commit"] = commit
doc["dirty"] = dirty
doc["repeats"] = repeats
doc["hardware_concurrency"] = os.cpu_count() or 1

# Host CPU identity: throughput numbers (and especially the SIMD-vs-scalar
# gaps) are only comparable across runs on the same silicon, so record the
# model and the vector ISAs the kernels can dispatch to.
def host_cpu():
    info = {"arch": os.uname().machine, "model": "unknown", "simd": []}
    try:
        with open("/proc/cpuinfo") as f:
            flags = set()
            for line in f:
                key, _, val = line.partition(":")
                key, val = key.strip(), val.strip()
                if key in ("model name", "Model") and info["model"] == "unknown":
                    info["model"] = val
                elif key in ("flags", "Features"):
                    flags.update(val.split())
            info["simd"] = sorted(
                f for f in ("sse4_2", "avx", "avx2", "avx512f", "asimd", "neon")
                if f in flags
            )
    except OSError:
        pass
    return info

doc["host_cpu"] = host_cpu()
doc["current_items_per_second"] = current
def parallel_key(name):
    # "BM_Foo Parallel/<threads>[/real_time]" -> (bench, thread count)
    digits = [p for p in name.split("/") if p.isdigit()]
    return (name.split("/")[0], int(digits[0]) if digits else 0)

doc["parallel_items_per_second"] = dict(
    sorted(parallel.items(), key=lambda kv: parallel_key(kv[0]))
)
doc["latency_us"] = latency_us
if baseline:
    doc["speedup_vs_seed"] = {
        name: round(current[name] / baseline[name], 2)
        for name in sorted(baseline)
        if name in current and baseline[name]
    }
with open(out_path, "w") as f:
    json.dump(doc, f, indent=2, sort_keys=False)
    f.write("\n")
print(f"wrote {out_path}  (repeats={repeats}, "
      f"hardware_concurrency={doc['hardware_concurrency']})")
for name in sorted(current):
    base = baseline.get(name)
    speed = f"  ({current[name] / base:.2f}x vs seed)" if base else ""
    print(f"  {name}: {current[name]:,} items/s{speed}")
for name in doc["parallel_items_per_second"]:
    print(f"  {name}: {parallel[name]:,} items/s")
for name, counters in latency_us.items():
    print(f"  {name}: " + ", ".join(f"{c} {v}" for c, v in counters.items()))
PY
