#!/usr/bin/env bash
# Builds the end-to-end benchmark (bench/e2e) from this checkout's
# source and runs it with the given arguments. Everything the build
# writes (Go build cache, temporary files, the binary) stays under
# .bench_build/ at the repository root, and no module is downloaded.
#
#   bash bench/bench.sh --workload dense --seed 1 --seconds 20 --trace 0
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/bench" && go build -o "$build/e2e" ./e2e)
cd "$root"
exec "$build/e2e" "$@"
