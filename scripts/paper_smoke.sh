#!/usr/bin/env bash
# paper_smoke.sh — CI integration check for paper-scale designs
# (DESIGN.md §15).
#
# Asserts end to end:
#   1. Paper scale: a ~300K-gate netcard-paper build diagnoses each chip
#      within 60s.
#   2. Volume: a small campaign over the same 300K-gate design
#      completes with every log diagnosed.
set -euo pipefail
cd "$(dirname "$0")/.."

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

echo "== build"
go build -o "$WORK/datagen" ./cmd/datagen
go build -o "$WORK/m3ddiag" ./cmd/m3ddiag
go build -o "$WORK/m3dvolume" ./cmd/m3dvolume

echo "== paper scale: 300K-gate diagnosis within 60s/chip"
"$WORK/m3ddiag" -design netcard-paper -fast-atpg \
  -train-samples 6 -diagnose-samples 2 -save-model "$WORK/paper.fw" \
  >"$WORK/paper.out" 2>"$WORK/paper.err"
CHIPS="$(grep -c 'diagnosed in' "$WORK/paper.err" || true)"
[ "$CHIPS" -eq 2 ] || { echo "expected 2 diagnosed chips, saw $CHIPS" >&2; exit 1; }
awk '/diagnosed in/ {
  secs=$NF; sub(/s$/, "", secs)
  if (secs+0 > 60) { print "chip exceeded 60s: " $0; exit 1 }
  print "  " $0
}' "$WORK/paper.err"

echo "== volume: small campaign over the 300K-gate design"
"$WORK/datagen" -design netcard-paper -fast-atpg -samples 6 \
  -out "$WORK/paperdata" >/dev/null
"$WORK/m3dvolume" -logs "$WORK/paperdata" -campaign "$WORK/papercamp" \
  -design netcard-paper -fast-atpg -load-model "$WORK/paper.fw" \
  -workers 2 >"$WORK/vol.out"
grep -q '"diagnosed": 6' "$WORK/papercamp/report.json" || {
  echo "campaign did not diagnose all 6 paper-scale logs" >&2
  head -5 "$WORK/papercamp/report.json" >&2; exit 1; }

echo "paper smoke: OK"
