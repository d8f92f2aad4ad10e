#!/usr/bin/env bash
# bench.sh — run the key Pattern-Fusion benchmarks and record them as JSON.
#
# Usage:
#   scripts/bench.sh [output.json]        # default output: BENCH_1.json
#   BENCHTIME=5x scripts/bench.sh         # more iterations for stabler numbers
#   BENCH_FILTER='BenchmarkMine' scripts/bench.sh   # widen/narrow the set
#
# The recorded benchmarks are BenchmarkMineReplace / BenchmarkMineMicroarray
# / BenchmarkMineQuest (the end-to-end fusion hot path on dense and sparse
# data), BenchmarkIncrementalMine (cold re-mine vs the warm start a pfserve
# monitor runs between appends, where the pool is small and per-step set-up
# weighs most), the BenchmarkEngine* family (every registry miner at p=1 vs p=8 on
# the Replace and Microarray workloads) and BenchmarkIngest (streaming ingestion of a ~100k-row Quest file: FIMI vs
# gzip vs CSV) — the perf trajectory (BENCH_*.json, one file per PR that
# moves the needle) is tracked against them. ns/op, B/op and allocs/op come
# from -benchmem.
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_1.json}"
benchtime="${BENCHTIME:-3x}"
filter="${BENCH_FILTER:-BenchmarkMineReplace|BenchmarkMineMicroarray|BenchmarkMineQuest|BenchmarkIncrementalMine|BenchmarkEngine|BenchmarkIngest}"

raw=$(go test -run '^$' -bench "$filter" -benchmem -benchtime "$benchtime" . ./internal/ingest)
printf '%s\n' "$raw" >&2

{
  printf '{\n'
  printf '  "benchtime": "%s",\n' "$benchtime"
  printf '  "go": "%s",\n' "$(go env GOVERSION)"
  # Multiple packages repeat the goos/goarch/cpu header; keep the first.
  printf '%s\n' "$raw" | awk '
    /^goos:/   && !seen_goos   { seen_goos = 1;   printf "  \"goos\": \"%s\",\n", $2 }
    /^goarch:/ && !seen_goarch { seen_goarch = 1; printf "  \"goarch\": \"%s\",\n", $2 }
    /^cpu:/    && !seen_cpu    { seen_cpu = 1; sub(/^cpu: */, ""); gsub(/"/, "\\\""); printf "  \"cpu\": \"%s\",\n", $0 }
  '
  printf '  "benchmarks": [\n'
  printf '%s\n' "$raw" | awk '
    /^Benchmark/ {
      if (seen) printf ",\n"
      seen = 1
      printf "    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", $1, $2, $3, $5, $7
    }
    END { if (seen) printf "\n" }
  '
  printf '  ]\n'
  printf '}\n'
} > "$out"

echo "wrote $out" >&2
