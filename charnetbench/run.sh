#!/usr/bin/env bash
# Builds charnet, charnetd and the benchmark from this checkout, then runs
# the benchmark with the given arguments, e.g.
#
#   bash charnetbench/run.sh --workload cli-table4 --seed 1 --seconds 30 --trace 0
#
# Run it from the checkout root. Everything it builds or writes stays in
# .bench_build/ under that root.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
mkdir -p "$TMPDIR" "$out/bin"
go build -o "$out/bin/" ./cmd/charnet ./cmd/charnetd
(cd charnetbench && go build -o "$out/bin/charnetbench" .)
exec "$out/bin/charnetbench" -bin "$out/bin" "$@"
