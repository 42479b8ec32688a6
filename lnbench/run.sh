#!/usr/bin/env bash
# Builds the benchmark and lnucad from the checkout it is run in, then
# runs one workload. Run from the repository root:
#
#   bash lnbench/run.sh --workload sim-fig5 --seed 1 --seconds 30 --trace 0
#
# Everything it writes (Go build cache, binaries, per-run scratch
# directories) stays under $CARGO_TARGET_DIR, default .bench_build.
set -euo pipefail

root=$(pwd)
bench="$root/lnbench"
if [ ! -f "$root/go.mod" ] || [ ! -f "$bench/go.mod" ]; then
	echo "lnbench: run from the repository root (need go.mod and lnbench/go.mod)" >&2
	exit 2
fi
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
mkdir -p "$GOCACHE" "$GOTMPDIR" "$build/bin" "$build/work"

go -C "$bench" build -o "$build/bin/lnbench" .
go -C "$bench" build -o "$build/bin/lnucad" repro/cmd/lnucad

exec "$build/bin/lnbench" -bin "$build/bin" -work "$build/work" "$@"
