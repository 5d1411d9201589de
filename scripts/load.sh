#!/bin/sh
# Load/SLO gate for the marchd overload contract (DESIGN.md §15): two
# marchload runs against in-process (-selfserve) marchd instances.
#
#   1. Nominal: a modest mixed workload against a default-sized instance.
#      Gate: zero admission sheds, cache-hit class fully green. Its
#      report (latency percentiles per class, shed counts,
#      allocs-per-cached-hit) is the overload run's baseline.
#   2. Overload: ~5x the concurrency against a deliberately small
#      instance (2 workers, queue 8, tightened CoDel knobs). Gates: the
#      admission controller MUST shed (min-shed), the cache-hit class
#      must stay >=99% successful, and its p99 must stay within 3x of
#      the nominal run's (floor 25ms), proving the cheap path stays
#      green while cold generates are refused with 429 + Retry-After.
#      (3x, not tighter: on a 1-CPU CI box the selfserve harness shares
#      the scheduler with the server, so overload-run client-side
#      queueing inflates measured p99 well beyond the server's own.)
#
# Usage: scripts/load.sh
#   Both reports go to a temporary directory, so the gate leaves the tree
#   untouched. Performance figures come from perfbench/, not from here.
set -eu
cd "$(dirname "$0")/.."

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT
OUT="$TMP/nominal.json"

BIN="$TMP/marchload"
go build -o "$BIN" ./cmd/marchload

echo "load: nominal run (gate: no sheds at nominal load)"
"$BIN" -selfserve -duration 5s -concurrency 4 \
	-mix "cachehit=8,cold=1,simulate=2,verify=1" \
	-alloc-sample 2000 \
	-max-shed 0 -min-class-success "cachehit=0.99" \
	-out "$OUT" >"$TMP/nominal.stdout"
echo "load: nominal OK -> $OUT"

echo "load: 5x overload run (gates: sheds happen, cached reads stay green)"
"$BIN" -selfserve -workers 2 -queue 8 \
	-admit-target 25ms -admit-interval 200ms \
	-duration 5s -concurrency 20 \
	-mix "cachehit=8,cold=6,simulate=2,verify=1" \
	-min-shed 1 -min-class-success "cachehit=0.99" \
	-baseline "$OUT" -max-cached-p99-ratio 3 -cached-p99-floor 25ms \
	-out "$TMP/overload.json" >"$TMP/overload.stdout"
echo "load: overload OK (sheds observed, cache-hit p99 within 3x of nominal)"
echo "load: PASS"
