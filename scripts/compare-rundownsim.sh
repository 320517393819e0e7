#!/usr/bin/env bash
# compare-rundownsim.sh — byte-compare two trees' rundownsim over seeded
# fault campaigns and chart shapes.
#
# Usage: scripts/compare-rundownsim.sh PARENT_TREE [CHANGE_TREE]
#
# Builds cmd/rundownsim from each tree (CHANGE_TREE defaults to this
# repository), runs both binaries on the same arguments and reports every
# run whose combined stdout+stderr or exit status differs, plus any
# differing -trace file. The campaigns are the 480 of EXPERIMENTS.md
# (-jobs {1,3} × five workload shapes × -faults seed={1,7,23,42},rules={4,16}
# -retry 2 -metrics × six manager settings); the chart shapes add -gantt
# runs, with and without faults, and -trace runs that draw the curve.
# Exits 0 when every run matches, 1 otherwise.
set -u

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
	echo "usage: $0 PARENT_TREE [CHANGE_TREE]" >&2
	exit 2
fi
parent_tree=$(cd "$1" && pwd) || exit 2
change_tree=$(cd "${2:-$(dirname "$0")/..}" && pwd) || exit 2

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
for side in parent change; do
	tree=${side}_tree
	if ! (cd "${!tree}" && go build -o "$work/sim_$side" ./cmd/rundownsim); then
		echo "build failed in ${!tree}" >&2
		exit 2
	fi
done

runs=0
diffs=0
# compare ARGS...: run both binaries on ARGS; a -trace file, if any, is
# written to $work/run.trace by each side in turn and compared too.
compare() {
	runs=$((runs + 1))
	local pe ce same=1
	"$work/sim_parent" "$@" >"$work/p.out" 2>&1
	pe=$?
	[ -f "$work/run.trace" ] && mv "$work/run.trace" "$work/p.trace"
	"$work/sim_change" "$@" >"$work/c.out" 2>&1
	ce=$?
	[ -f "$work/run.trace" ] && mv "$work/run.trace" "$work/c.trace"
	cmp -s "$work/p.out" "$work/c.out" && [ "$pe" = "$ce" ] || same=0
	if [ -f "$work/p.trace" ] || [ -f "$work/c.trace" ]; then
		cmp -s "$work/p.trace" "$work/c.trace" || same=0
		rm -f "$work/p.trace" "$work/c.trace"
	fi
	if [ $same = 0 ]; then
		diffs=$((diffs + 1))
		echo "DIFF (exit $pe vs $ce): $*"
	fi
}

managers=("-manager serial" "-manager serial -dedicated" "-adaptive" "-manager sharded" "-adaptive -batch 4" "-manager async")

# The 480 seeded fault campaigns.
for jobs in 1 3; do
	for shape in "-mapping identity -granules 2048 -overlap" "-mapping identity -granules 2048 -overlap -presplit" \
		"-mapping reverse -granules 1024 -overlap -grain 4" "-casper -overlap" "-mapping seam -granules 1024 -overlap"; do
		for seed in 1 7 23 42; do
			for rules in 4 16; do
				for mgr in "${managers[@]}"; do
					# shellcheck disable=SC2086
					compare -jobs $jobs $shape -procs 16 -faults seed=$seed,rules=$rules -retry 2 $mgr -metrics
				done
			done
		done
	done
done

# Chart shapes: the ASCII Gantt chart on small runs, and the curve drawn
# from a trace that -trace also writes to a file.
for mgr in "${managers[@]}"; do
	for shape in "-mapping identity -granules 256 -procs 4 -overlap -grain 8" "-casper -procs 8 -overlap" \
		"-mapping seam -granules 512 -procs 8 -overlap -faults seed=7,rules=4 -retry 2" \
		"-mapping reverse -granules 256 -procs 6 -overlap -grain 4 -curve=false"; do
		# shellcheck disable=SC2086
		compare $shape $mgr -gantt
		# shellcheck disable=SC2086
		compare $shape $mgr -trace "$work/run.trace"
	done
done

echo "$((runs - diffs)) of $runs runs identical (output and exit status)"
[ $diffs = 0 ]
