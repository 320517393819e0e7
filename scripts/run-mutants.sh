#!/usr/bin/env bash
# run-mutants.sh — prove that the referees fail: apply each mutant in
# scripts/mutants/ to a scratch copy of this tree and run the tests it
# names.
#
# Usage: scripts/run-mutants.sh [MUTANT.patch ...]
#
# With no arguments every scripts/mutants/*.patch is run. A mutant is a
# patch that breaks one rule the code keeps; its header names the tests
# that must kill it, one "Kills: PACKAGE TEST" line each, and an optional
# "Flags: ..." line adds go test flags to every run of those tests (-race
# for a mutant only the race detector sees). For each mutant
# the tree (tracked and untracked files, as they are on disk; nothing
# ignored, no .git) is copied to a temporary directory, the patch is
# applied there, and each named test is run alone. The mutant is killed
# when the mutated tree builds and every named test exists and reports
# its own failure (a "--- FAIL" line for it, a panic inside it included).
# Exits 0 when every mutant is killed, 1 when one survives or no longer
# applies, 2 on a usage error.
set -u

root=$(cd "$(dirname "$0")/.." && pwd) || exit 2
if [ $# -gt 0 ]; then
	patches=("$@")
else
	patches=("$root"/scripts/mutants/*.patch)
fi

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

mutants=0
bad=0
for patch in "${patches[@]}"; do
	patch=$(cd "$(dirname "$patch")" && pwd)/$(basename "$patch") || exit 2
	name=$(basename "$patch" .patch)
	mutants=$((mutants + 1))
	kills=$(sed -n 's/^Kills: //p' "$patch")
	flags=$(sed -n 's/^Flags: //p' "$patch")
	if [ -z "$kills" ]; then
		echo "NO KILLERS: $name names no test"
		bad=$((bad + 1))
		continue
	fi
	tree="$work/$name"
	mkdir -p "$tree"
	(cd "$root" && git ls-files -co --exclude-standard -z | tar --null -T - -cf -) | tar -x -C "$tree"
	if ! (cd "$tree" && git apply "$patch"); then
		echo "STALE: $name no longer applies"
		bad=$((bad + 1))
		rm -rf "$tree"
		continue
	fi
	survived=0
	while read -r pkg test; do
		# -list builds the test binary: a mutant that does not compile, or
		# a killer that was renamed away, must not pass for a kill.
		# shellcheck disable=SC2086 # flags is a word list
		if ! listed=$(cd "$tree" && go test $flags -list "^${test}\$" "$pkg" 2>&1); then
			echo "BROKEN: $name does not build $pkg"
			echo "$listed" | head -20
			survived=1
			continue
		fi
		if ! grep -qx "$test" <<<"$listed"; then
			echo "NO TEST: $name names $test, which $pkg does not have"
			survived=1
			continue
		fi
		# shellcheck disable=SC2086
		(cd "$tree" && go test $flags -count=1 -run "^${test}\$" "$pkg" >"$work/out" 2>&1)
		if grep -q -- "--- FAIL: ${test}\b" "$work/out"; then
			echo "killed: $name by $pkg $test"
		else
			echo "SURVIVED: $name passes $pkg $test"
			survived=1
		fi
	done <<<"$kills"
	bad=$((bad + survived))
	rm -rf "$tree"
done

echo "$((mutants - bad)) of $mutants mutants killed by every test they name"
[ $bad = 0 ]
