#!/usr/bin/env bash
# Entry point for the benchmark driver (BENCHMARK.json's command): build
# ./bench and run it with the driver's arguments. Build cache, temporary
# files and the binary all go under .bench_build/ so that nothing is
# written outside the checkout; by hand, `go run ./bench` does the same
# job with the user's own cache.
set -euo pipefail
if [ ! -f go.mod ]; then
	echo "bench/run.sh: run from the repository root (no go.mod here)" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -o "$build/seedbench" ./bench
exec "$build/seedbench" "$@"
