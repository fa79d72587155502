#!/usr/bin/env sh
# Tier-1 verification: vet, build, lint, test.
#
# raplint (cmd/raplint) is this repo's own static-analysis pass; it
# enforces the determinism, unit, and concurrency-soundness invariants
# described in DESIGN.md §6 and exits nonzero on any finding.
set -eu

cd "$(dirname "$0")/.."

# Build the tool binaries once; every later step reuses them instead of
# paying a `go run` compile each time.
bin="$(mktemp -d)"
trap 'rm -rf "$bin"' EXIT

echo "== go vet"
go vet ./...
echo "== go build"
go build ./...
go build -o "$bin/raplint" ./cmd/raplint
go build -o "$bin/rapbench" ./cmd/rapbench
echo "== raplint"
"$bin/raplint" -timing -json lint-report.json ./...
# Belt and braces: raplint already exits nonzero on findings, but the
# written report must also decode to zero findings — -check-report
# parses the artifact (a truncated or non-report file fails the gate,
# where the old textual grep silently passed it).
"$bin/raplint" -check-report lint-report.json || {
	echo "verify: lint-report.json records non-suppressed findings" >&2
	exit 1
}
echo "== go test -race"
go test -race ./...
echo "== bench module"
# bench/ is its own Go module (rap/bench, replace rap => ../), so the
# root ./... patterns never compile it; vet and test it here so an API
# change that breaks the end-to-end benchmark fails tier-1.
(cd bench && go vet ./... && go test -race ./...)
echo "== cluster-smoke"
# The fleet simulator (2 nodes x 4 GPUs, 6 jobs, both placement
# policies) must reproduce its report digests bit-identically across two
# from-scratch runs; rapbench exits nonzero on any drift.
"$bin/rapbench" -cluster-smoke
echo "== lintstats"
# Cold-vs-warm raplint timing against a throwaway cache: asserts the
# warm run is fully cache-served (no SSA or concurrency fact builds).
RAPLINT_BIN="$bin/raplint" ./scripts/lintstats.sh
echo "verify: OK"
