#!/usr/bin/env sh
# Mutant corpus: tests of the tests.
#
# Each scripts/mutants/*.diff is one deliberate bug. Its header says what
# the mutant breaks, where it comes from (`origin`, the commit whose
# tests or review first named it) or which bug class of the determinism
# trial it seeds (`class`, DESIGN.md §6), the package whose tests run,
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
# `go test -overlay`, so the tree is never touched. The tests of
# ./internal/lint parse the module's source from disk, which -overlay
# does not reach, so a mutant naming that package runs its tests in a
# temporary copy of the module with the mutated file in place. A mutant
# is killed when the run fails and every named test reports `--- FAIL`
# (or, for a mutant that makes the engine loop, is still running when
# the run's `-timeout` flag stops it).
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
	file=$(sed -n 's|^+++ b/\([^[:space:]]*\).*|\1|p' "$m" | head -n 1)
	if [ -z "$pkg" ] || [ -z "$kill" ] || [ -z "$file" ]; then
		echo "FAIL $name: header lacks package or kill, or a +++ b/<file> line"
		failed=$((failed + 1))
		continue
	fi
	if ! patch -s --fuzz=0 --no-backup-if-mismatch -r "$tmp/rej" -o "$tmp/mutant.go" "$file" <"$m" >"$tmp/patch.log" 2>&1; then
		echo "FAIL $name: diff no longer applies to $file"
		sed 's/^/    /' "$tmp/patch.log"
		failed=$((failed + 1))
		continue
	fi
	if [ "$pkg" = ./internal/lint ]; then
		# The module copy is made once; each mutant puts its file in
		# place and the original back after its runs.
		if [ ! -d "$tmp/tree" ]; then
			mkdir "$tmp/tree"
			tar -cf - --exclude=./.git . | tar -xf - -C "$tmp/tree"
		fi
		cp "$tmp/mutant.go" "$tmp/tree/$file"
		dir=$tmp/tree
		overlay=
	else
		printf '{"Replace":{"%s":"%s"}}\n' "$root/$file" "$tmp/mutant.go" >"$tmp/overlay.json"
		dir=$root
		overlay="-overlay $tmp/overlay.json"
	fi
	pattern="^($(echo "$kill" | tr ' ' '|'))\$"
	verdict=killed
	run=1
	while [ "$run" -le "$runs" ] && [ "$verdict" = killed ]; do
		# shellcheck disable=SC2086 # overlay and flags are word lists
		if (cd "$dir" && go test -count=1 $overlay $flags -run "$pattern" "$pkg") >"$tmp/test.log" 2>&1; then
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
	if [ "$dir" != "$root" ]; then
		cp "$file" "$tmp/tree/$file"
	fi
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
