#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ at the root of the checkout
# (Go's caches too, so nothing is written outside it) and runs it from
# bench/, where it puts out/. Arguments go to the program: see README.md.
set -euo pipefail
bench=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build=$(dirname "$bench")/.bench_build
mkdir -p "$build"
export GOCACHE=$build/gocache GOMODCACHE=$build/gomodcache GOPATH=$build/gopath
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off
cd "$bench"
go build -buildvcs=false -o "$build/gsumbench" .
BENCH_COMMIT=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
export BENCH_COMMIT
exec "$build/gsumbench" "$@"
