#!/usr/bin/env bash
# bench.sh — the benchmark-regression harness.
#
# Runs the full benchmark suite (per-figure pipeline benchmarks plus the
# simulator micro-benchmarks), records a BENCH_<rev>.json snapshot via
# cmd/benchdiff, and compares it against the most recent record committed
# on an ancestor revision. Exits nonzero if any benchmark regressed more
# than the tolerance (default 10%), or if its B/op or allocs/op grew more
# than 5% (they are deterministic, so that gate is tight and fixed).
#
# Also records top-level pipeline phase wall-times: one `charnet
# -profile-json` run of every figure lands phase:<name> entries in the
# record, so a benchdiff regression localizes to a phase (looser
# PHASE_TOL, since each phase is a single run). A `charnetd -selftest`
# run additionally lands serving latency (phase:serve.loadgen.p50/p99/
# ns_per_req) in the same record, so daemon regressions are caught too.
#
# Environment knobs:
#   BENCH      benchmark regexp        (default ".")
#   BENCHTIME  go test -benchtime      (default "1s")
#   COUNT      go test -count          (default 3; min across runs is kept)
#   BENCH_TOL  allowed slowdown        (default 0.10)
#   PHASE_TOL  allowed phase slowdown  (default 0.35)
#   BENCH_BASE explicit baseline file  (default: newest BENCH_<rev>.json of
#              an ancestor commit)
set -euo pipefail
cd "$(dirname "$0")/.."

rev=$(git rev-parse --short=7 HEAD)
if ! git diff --quiet HEAD 2>/dev/null; then
    rev="${rev}-dirty"
fi
out="BENCH_${rev}.json"

echo "== charnet phase profile (rev ${rev})"
phases=$(mktemp)
loadgen=$(mktemp)
trap 'rm -f "$phases" "$loadgen"' EXIT
go run ./cmd/charnet -profile-json "$phases" all > /dev/null 2> /dev/null

echo "== charnetd serving selftest (rev ${rev})"
go run ./cmd/charnetd -addr 127.0.0.1:0 -selftest -selftest-json "$loadgen" 2> /dev/null

echo "== go test -bench (rev ${rev})"
go test -run=NONE -bench="${BENCH:-.}" -benchmem -benchtime="${BENCHTIME:-1s}" \
    -count="${COUNT:-3}" ./... |
    go run ./cmd/benchdiff record -rev "$rev" -phases "$phases,$loadgen" -out "$out"
echo "recorded $out"

# Baseline: newest BENCH_<rev>.json whose rev is an ancestor commit (not
# this one). Explicit override via BENCH_BASE.
base="${BENCH_BASE:-}"
if [[ -z "$base" ]]; then
    for r in $(git rev-list --abbrev-commit --abbrev=7 HEAD); do
        if [[ "$r" != "${rev%-dirty}" && -f "BENCH_${r}.json" ]]; then
            base="BENCH_${r}.json"
            break
        fi
    done
fi
if [[ -z "$base" ]]; then
    echo "no baseline record found; $out is the new baseline"
    exit 0
fi

echo "== benchdiff compare"
go run ./cmd/benchdiff compare -tol "${BENCH_TOL:-0.10}" -phase-tol "${PHASE_TOL:-0.35}" "$base" "$out"
