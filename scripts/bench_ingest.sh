#!/usr/bin/env bash
# Ingest benchmark harness: runs micro_ingest (overlapped parallel import at
# jobs 1/2/8, mmap load vs rebuild-from-trace) and
# writes one BENCH_ingest.json with the headline ratios. Numbers depend
# hard on the host's core count — the JSON records num_cpus so a jobs sweep
# from a single-core box is not mistaken for a scaling regression.
#
# Usage: scripts/bench_ingest.sh [BUILD_DIR] [OUT_JSON]
#   BUILD_DIR defaults to "build", OUT_JSON to "BENCH_ingest.json".
#
# Environment:
#   LOCKDOC_BENCH_OPS         op count for the simulated-kernel trace
#                             (default 100000; smoke CI uses 2500).
#   LOCKDOC_BENCH_MIN_TIME    --benchmark_min_time for micro_ingest, as a
#                             plain double in seconds (unset = library default).
#   LOCKDOC_BENCH_ALLOW_DEBUG set to 1 to benchmark an unoptimized build
#                             anyway (the JSON is annotated).
set -euo pipefail

BUILD_DIR="${1:-build}"
OUT_JSON="${2:-BENCH_ingest.json}"

# shellcheck source=scripts/bench_common.sh
source "$(dirname "$0")/bench_common.sh"
lockdoc_bench_require_release "$BUILD_DIR" bench_ingest

MICRO="$BUILD_DIR/bench/micro_ingest"
if [[ ! -x "$MICRO" ]]; then
  echo "bench_ingest: missing $MICRO (build the 'micro_ingest' target first)" >&2
  exit 1
fi

TMP_DIR="$(mktemp -d)"
trap 'rm -rf "$TMP_DIR"' EXIT

MICRO_ARGS=(
  "--benchmark_out=$TMP_DIR/ingest.json"
  "--benchmark_out_format=json"
)
if [[ -n "${LOCKDOC_BENCH_MIN_TIME:-}" ]]; then
  MICRO_ARGS+=("--benchmark_min_time=$LOCKDOC_BENCH_MIN_TIME")
fi
echo "bench_ingest: micro_ingest ${MICRO_ARGS[*]}" >&2
"$MICRO" "${MICRO_ARGS[@]}"

python3 - "$TMP_DIR" "$OUT_JSON" <<'PY'
import json
import os
import sys

tmp_dir, out_path = sys.argv[1], sys.argv[2]
with open(os.path.join(tmp_dir, "ingest.json")) as f:
    raw = json.load(f)

times = {}
for bench in raw.get("benchmarks", []):
    times[bench["name"]] = bench["real_time"]

def ratio(slow, fast):
    if slow in times and fast in times and times[fast] > 0:
        return round(times[slow] / times[fast], 2)
    return None

build_type = os.environ.get("LOCKDOC_BENCH_BUILD_TYPE", "unknown")
merged = {
    "generated_by": "scripts/bench_ingest.sh",
    "build_type": build_type,
    "ops": os.environ.get("LOCKDOC_BENCH_OPS", "100000 (default)"),
    "context": raw.get("context", {}),
    "benchmarks": raw.get("benchmarks", []),
    # Headline ratios. The load comparisons are single-threaded and
    # host-independent; the import jobs sweep is bounded by num_cpus above
    # (on one core it measures scheduling overhead, not scaling).
    "v2_mmap_vs_rebuild": ratio("BM_RebuildFromTrace", "BM_LoadV2Mmap"),
    "import_jobs8_vs_jobs1": ratio("BM_ImportAndSave/1", "BM_ImportAndSave/8"),
}
if build_type not in ("Release", "RelWithDebInfo", "MinSizeRel"):
    merged["warning"] = "unoptimized build; numbers are not comparable"
with open(out_path, "w") as f:
    json.dump(merged, f, indent=2)
    f.write("\n")
print(f"bench_ingest: wrote {out_path} "
      f"(v2 mmap vs rebuild {merged['v2_mmap_vs_rebuild']}x, "
      f"jobs8 vs jobs1 import {merged['import_jobs8_vs_jobs1']}x)")
PY
