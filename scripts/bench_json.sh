#!/usr/bin/env bash
# bench_json.sh — run the flagship and kernel benchmarks and append the
# results as one labeled run to the BENCH.json performance trajectory.
#
# Usage:
#   scripts/bench_json.sh [-l label] [-b baseline.json] [-o out.json] [-t benchtime] [-g]
#
#   -l  run label recorded in the trajectory (default: current git short SHA)
#   -b  existing trajectory whose runs are carried forward (default: none)
#   -o  output file (default: stdout)
#   -t  go test -benchtime value (default: 2s; use 1x for a CI smoke run)
#   -g  enforce the perf gates (zero allocs on steady-state inference and
#       candidate scoring, >=3x TierInference and >=2x GNNFit vs the
#       trajectory's first run)
#
# The flagship suite (package repro) measures end-to-end pipeline stages;
# the kernel suites (internal/gnn, internal/mat) measure the flat-CSR and
# dense kernels in isolation. All run with -benchmem so alloc gates work.
# The paper-table reproduction benchmarks (BenchmarkTable*/Fig*/Ablation*)
# are deliberately excluded — they are experiment drivers that take minutes
# each, not perf-tracked kernels.
set -euo pipefail
cd "$(dirname "$0")/.."

label=$(git rev-parse --short HEAD 2>/dev/null || echo run)
baseline=""
out=""
benchtime="2s"
gates=0
while getopts "l:b:o:t:g" opt; do
  case "$opt" in
    l) label="$OPTARG" ;;
    b) baseline="$OPTARG" ;;
    o) out="$OPTARG" ;;
    t) benchtime="$OPTARG" ;;
    g) gates=1 ;;
    *) exit 2 ;;
  esac
done

args=(-label "$label")
[ -n "$baseline" ] && args+=(-baseline "$baseline")
[ -n "$out" ] && args+=(-out "$out")
if [ "$gates" = 1 ]; then
  args+=(
    -require-zero-allocs BenchmarkTierInference
    -require-zero-allocs BenchmarkScoreCandidate
    -require-speedup BenchmarkTierInference=3.0
    -require-speedup BenchmarkGNNFit=2.0
  )
fi

flagship='^(BenchmarkTierInference|BenchmarkGNNFit|BenchmarkDiagnoseThroughput|BenchmarkHierDiagnose|BenchmarkDatasetGenerate|BenchmarkBacktrace|BenchmarkScoreCandidate)$'
{
  go test -run '^$' -bench "$flagship" -benchmem -benchtime "$benchtime" .
  go test -run '^$' -bench . -benchmem -benchtime "$benchtime" ./internal/gnn ./internal/mat
} | tee /dev/stderr | go run ./cmd/benchjson "${args[@]}"
