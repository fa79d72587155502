#!/usr/bin/env sh
# Tier-1 verification: vet, build, lint, test.
#
# raplint (cmd/raplint) is this repo's own static-analysis pass; it
# enforces the determinism invariants described in DESIGN.md §6 and
# exits nonzero on any finding.
set -eu

cd "$(dirname "$0")/.."

# Build the tool binaries once; every later step reuses them instead of
# paying a `go run` compile each time.
bin="$(mktemp -d)"
trap 'rm -rf "$bin"' EXIT

# phase prints the wall time of the phase that just ended, then starts
# the named one. The times are a report, not a gate.
start=$(date +%s)
phase_start=$start
phase_name=
phase() {
	now=$(date +%s)
	if [ -n "$phase_name" ]; then
		echo "   $phase_name: $((now - phase_start)) s"
	fi
	phase_name=$1
	phase_start=$now
	if [ -n "$phase_name" ]; then
		echo "== $phase_name"
	fi
}

phase gofmt
# The tree is kept gofmt-clean; list any file that is not.
test -z "$(gofmt -l .)"
phase "go vet"
go vet ./...
phase "go build"
go build ./...
go build -o "$bin/raplint" ./cmd/raplint
go build -o "$bin/rapbench" ./cmd/rapbench
phase raplint
"$bin/raplint" -timing -json lint-report.json ./...
phase "go test -race"
go test -race ./...
phase "schedule check (-cpu 1,3,8)"
# The planner and the fleet fan work out over goroutines; these tests pin
# their results, so rerunning them at three GOMAXPROCS values fails
# tier-1 on any result that depends on the worker count.
go test -count=1 -cpu 1,3,8 -run 'TestPlanGolden$|TestSimulateMatchesReference$|TestClusterSmokeDigests$|TestCongestedPipelineDigests$|TestTimelineReadersGolden$' \
	./internal/rap ./internal/cluster ./internal/experiments ./internal/sched
phase "benchmarks (one iteration each)"
# go test alone only compiles benchmarks; run each once so a benchmark
# that fails or panics fails tier-1. -benchmem prints each one's B/op
# (BenchmarkFleetJob's is the per-run budget of DESIGN.md §5).
go test -run '^$' -bench 'BenchmarkEngine|BenchmarkPipeline|BenchmarkCoRunSchedule|BenchmarkFleetJob|BenchmarkFleetFill|BenchmarkFleetTrace|BenchmarkSolvePlanSized|BenchmarkSolveGoldenPlans|BenchmarkPlanFusionStandard|BenchmarkBuildPlan|BenchmarkEstimateCapacities|BenchmarkWriteChromeTrace' -benchtime 1x -benchmem \
	./internal/gpusim ./internal/sched ./internal/cluster ./internal/milp ./internal/fusion ./internal/rap ./internal/trace
phase "bench module"
# bench/ is its own Go module (rap/bench, replace rap => ../), so the
# root ./... patterns never compile it; vet and test it here so an API
# change that breaks the end-to-end benchmark fails tier-1.
(cd bench && go vet ./... && go test -race ./...)
phase cluster-smoke
# The fleet simulator (2 nodes x 4 GPUs, 6 jobs, both placement
# policies) must reproduce its report digests bit-identically across two
# from-scratch runs; rapbench exits nonzero on any drift.
"$bin/rapbench" -cluster-smoke
phase ""
echo "verify: OK ($(($(date +%s) - start)) s)"
