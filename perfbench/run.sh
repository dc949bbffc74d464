#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload fj-fine --seed 1 --seconds 10 --trace 0
#
# The Go build cache, its temporary files, the binary and the result
# records all go under $CARGO_TARGET_DIR (default .bench_build), so a run
# writes nothing outside the checkout. A tree without the dfdeques module
# next to perfbench fails the build and exits nonzero.
set -euo pipefail
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$PWD/$out ;; esac
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOTELEMETRY=off GOFLAGS=-mod=mod
mkdir -p "$out/tmp"
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" -records "$out/records" "$@"
