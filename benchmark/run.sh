#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Run from the repository root: bash benchmark/run.sh [flags]; the
# flags are those of the benchmark command (see benchmark/README.md).
# Everything the build writes stays in .bench_build/: the binary, the
# go build and module caches and the toolchain's temporary files.
set -euo pipefail
root=$PWD
if [ ! -f "$root/benchmark/go.mod" ]; then
	echo "benchmark/run.sh: run from the repository root" >&2
	exit 2
fi
build=$root/.bench_build
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE=$build/gocache GOTMPDIR=$build/gotmp GOPATH=$build/gopath GOMODCACHE=$build/gopath/pkg/mod
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
go build -C "$root/benchmark" -o "$build/ankerdb-benchmark" .
exec "$build/ankerdb-benchmark" "$@"
