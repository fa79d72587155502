#!/usr/bin/env sh
# Mutant corpus: tests of the tests.
#
# Each scripts/mutants/*.diff is one deliberate bug. Its header says what
# the mutant breaks, where it comes from (`origin`, the commit whose
# tests or review first named it) or which raplint analyzer's bug class
# it seeds (`class`), the package,
# the go test flags and the tests that must fail; a unified diff against
# one production file follows:
#
#	# <what the mutant breaks>
#	# origin: da8cf17                  (or `# class: floateq`)
#	# package: ./internal/cluster
#	# flags: -race                     (optional)
#	# kill: TestSimulateMatchesReference TestJobDurationRejectsNonPositive
#	--- a/internal/cluster/cluster.go
#	+++ b/internal/cluster/cluster.go
#	@@ ...
#
# For each mutant the runner applies the diff with `patch --fuzz=0` to a
# temporary copy of the file and runs the named tests through
# `go test -overlay`, so the tree is never touched. A mutant is killed
# when the run fails and every named test reports `--- FAIL` (or, for a
# mutant that makes the engine loop, is still running when the run's
# `-timeout` flag stops it).
#
# A mutant that no test kills, and that is the reason a raplint analyzer
# stays (DESIGN.md §6), names the analyzer instead of tests:
#
#	# lint: floateq
#
# It is killed when raplint, run on the package in a temporary copy of
# the module with the diff applied, reports a finding of that analyzer.
#
# The runner fails if any mutant survives, does not compile, or no
# longer applies.
#
# Usage: scripts/mutants.sh [name...]   # default: every mutant
#        MUTANT_RUNS=5 scripts/mutants.sh   # a test kill must repeat in every run
set -eu

cd "$(dirname "$0")/.."
root=$(pwd)
runs=${MUTANT_RUNS:-1}
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

if [ $# -eq 0 ]; then
	set -- scripts/mutants/*.diff
else
	for name; do
		shift
		set -- "$@" "scripts/mutants/${name%.diff}.diff"
	done
fi

start=$(date +%s)
failed=0
total=0
for m; do
	total=$((total + 1))
	name=$(basename "$m" .diff)
	header() { sed -n "s/^# $1: *//p" "$m" | head -n 1; }
	pkg=$(header package)
	flags=$(header flags)
	kill=$(header kill)
	lint=$(header lint)
	file=$(sed -n 's|^+++ b/\([^[:space:]]*\).*|\1|p' "$m" | head -n 1)
	if [ -z "$pkg" ] || [ -z "$kill$lint" ] || [ -z "$file" ]; then
		echo "FAIL $name: header lacks package, kill or lint, or a +++ b/<file> line"
		failed=$((failed + 1))
		continue
	fi
	if ! patch -s --fuzz=0 --no-backup-if-mismatch -r "$tmp/rej" -o "$tmp/mutant.go" "$file" <"$m" >"$tmp/patch.log" 2>&1; then
		echo "FAIL $name: diff no longer applies to $file"
		sed 's/^/    /' "$tmp/patch.log"
		failed=$((failed + 1))
		continue
	fi
	if [ -n "$lint" ]; then
		# raplint reads source from disk, so it runs on a copy of the
		# module, made and built once.
		if [ ! -d "$tmp/tree" ]; then
			mkdir "$tmp/tree"
			tar -cf - --exclude=./.git . | tar -xf - -C "$tmp/tree"
			go build -o "$tmp/raplint" ./cmd/raplint
		fi
		cp "$tmp/mutant.go" "$tmp/tree/$file"
		(cd "$tmp/tree" && "$tmp/raplint" "$pkg") >"$tmp/test.log" 2>&1 || true
		cp "$file" "$tmp/tree/$file"
		if grep -q "($lint)\$" "$tmp/test.log"; then
			echo "ok   $name (raplint $lint)"
		else
			echo "FAIL $name: raplint reports no $lint finding"
			sed 's/^/    /' "$tmp/test.log" | tail -n 20
			failed=$((failed + 1))
		fi
		continue
	fi
	printf '{"Replace":{"%s":"%s"}}\n' "$root/$file" "$tmp/mutant.go" >"$tmp/overlay.json"
	pattern="^($(echo "$kill" | tr ' ' '|'))\$"
	verdict=killed
	run=1
	while [ "$run" -le "$runs" ] && [ "$verdict" = killed ]; do
		# shellcheck disable=SC2086 # flags is a word list
		if go test -count=1 -overlay "$tmp/overlay.json" $flags -run "$pattern" "$pkg" >"$tmp/test.log" 2>&1; then
			verdict="survived run $run: the named tests pass"
		elif grep -q -e '\[build failed\]' -e '\[setup failed\]' "$tmp/test.log"; then
			verdict="does not compile"
		else
			for t in $kill; do
				# A named test fails, or hangs until the -timeout flag
				# stops the run while it is among the running tests.
				if ! grep -q -e "^--- FAIL: $t " -e "^--- FAIL: $t\$" "$tmp/test.log" &&
					! { grep -q '^panic: test timed out' "$tmp/test.log" &&
						grep -q "^[[:space:]]*$t (" "$tmp/test.log"; }; then
					verdict="survived run $run: $t did not fail"
					break
				fi
			done
		fi
		run=$((run + 1))
	done
	if [ "$verdict" = killed ]; then
		echo "ok   $name"
	else
		echo "FAIL $name: $verdict"
		sed 's/^/    /' "$tmp/test.log" | tail -n 20
		failed=$((failed + 1))
	fi
done
echo "mutants: $((total - failed)) of $total killed in $runs run(s) each ($(($(date +%s) - start)) s)"
[ "$failed" -eq 0 ]
