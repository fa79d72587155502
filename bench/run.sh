#!/usr/bin/env bash
# Runs one result set of the end-to-end benchmark: every workload once
# per run, one process each, then one traced run per workload. Each run
# writes its full result (-out) into the results directory, which
# `bash bench/bench.sh -compare <setA> <setB>` reads.
#
#   bash bench/run.sh [-n runs] [-s seed] [-t seconds] [-o dir] [-T]
#
#   -n  runs per workload (default 1)
#   -s  input seed (default 1)
#   -t  measurement window in seconds (default: run_seconds of BENCHMARK.json)
#   -o  results directory (default .bench_build/results)
#   -T  skip the traced runs
set -euo pipefail

cd "$(dirname "$0")/.."
runs=1 seed=1 secs="" dir=.bench_build/results traced=1
while getopts "n:s:t:o:T" opt; do
	case $opt in
	n) runs=$OPTARG ;;
	s) seed=$OPTARG ;;
	t) secs=$OPTARG ;;
	o) dir=$OPTARG ;;
	T) traced=0 ;;
	*) exit 2 ;;
	esac
done
if [ -z "$secs" ]; then
	secs=$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' BENCHMARK.json)
fi

workloads="light dense wide fleet"
mkdir -p "$dir"
for ((r = 0; r < runs; r++)); do
	for w in $workloads; do
		k=1
		while [ -e "$dir/$w.$k.json" ]; do k=$((k + 1)); done
		echo "== $w run $k" >&2
		bash bench/bench.sh --workload "$w" --seed "$seed" --seconds "$secs" --trace 0 \
			-out "$dir/$w.$k.json" | tail -n 1
	done
done
if [ "$traced" = 1 ]; then
	for w in $workloads; do
		echo "== $w traced" >&2
		bash bench/bench.sh --workload "$w" --seed "$seed" --seconds "$secs" --trace 1 \
			-out "$dir/traced/$w.json" -spans "$dir/traced/spans-$w.json" | tail -n 1
	done
fi
