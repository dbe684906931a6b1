#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, from the root of the checkout:
#
#   bash perfbench/run.sh --workload timeline --seed 42 --seconds 10 --trace 0
#
# The Go build cache, the toolchain's scratch and config files and the
# binary live in .bench_build, so the build writes nothing outside the
# checkout, and later runs reuse the cache.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=-mod=readonly
(cd perfbench && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
