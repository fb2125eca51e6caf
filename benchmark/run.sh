#!/usr/bin/env bash
# The command of BENCHMARK.json: build the benchmark inside the checkout,
# then run it with the driver's arguments. Go's build cache and temporary
# files are kept under .bench_build so that nothing is written outside
# the checkout. Run from the root of the checkout.
set -euo pipefail
root="$PWD"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -o "$build/genobench" ./benchmark
exec "$build/genobench" -dir "$build" "$@"
