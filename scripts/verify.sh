#!/usr/bin/env sh
# Tier-1 verification: vet, build, test.
#
# The determinism rule of DESIGN.md §6 (no global math/rand and no wall
# clock in internal/) is the ordinary test internal/lint.TestTreeClean,
# so `go test` enforces it.
set -eu

cd "$(dirname "$0")/.."

# Build rapbench once; the cluster-smoke step runs the binary instead of
# paying a `go run` compile.
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
go build -o "$bin/rapbench" ./cmd/rapbench
phase "determinism rule mutants"
# No result test sees a wall-clock deadline or timer in the MILP search
# (every solve ends long before it fires); TestTreeClean must still
# report both (DESIGN.md §6). About 5 s on a warm build cache.
scripts/mutants.sh seededrand-milp-deadline seededrand-milp-timer
phase "go test -race"
go test -race ./...
phase "schedule check (-cpu 1,3,8)"
# The planner, the fleet and ParallelApply fan work out over goroutines;
# these tests pin their results, so rerunning them at three GOMAXPROCS
# values fails tier-1 on any result that depends on the worker count.
# TestShiftedPrepBytesInItemOrder covers the planner's per-GPU lowering
# at a fractional list length, where a sum's order shows in its bits.
go test -count=1 -cpu 1,3,8 -run 'TestPlanGolden$|TestShiftedPrepBytesInItemOrder$|TestSimulateMatchesReference$|TestClusterSmokeDigests$|TestCongestedPipelineDigests$|TestTimelineReadersGolden$|TestParallelApplyMatchesSerial$' \
	./internal/rap ./internal/cluster ./internal/experiments ./internal/sched ./internal/preproc
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
