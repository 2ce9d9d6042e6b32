#!/usr/bin/env bash
# counts-gate.sh <base-ref>
#
# The exact half of the benchmark as a gate: runs a short traced pass of every
# workload (benchmark/run.sh -trace 1 -rounds 2 -quick) on the committed files
# of <base-ref> and on the working tree, and fails when any exact count or
# model.* value (model.digest, the vtime.span.* counts, the core.* and numa.*
# work counters) differs between the two. Time metrics are not looked at: a
# traced pass records none that -compare judges.
#
# A change that re-records a baseline (*_v*.json) or BENCHMARK.json has
# declared that the model may have moved; the gate still runs both passes and
# prints the comparison's summary lines (identical / DIFFERENT per group), so
# the notice shows what the re-record moved, and then passes. A new kind's
# first baseline file, added beside unchanged ones, re-records nothing.
# When the re-record includes the event-digest matrix (EVENTS_v*.json), the
# gate first runs `gcbench -compare` against <base-ref>'s digests and
# prints every configuration whose `gctrace -events` output moved, with the
# window where it first departs, so the notice names what the bump covers.
# The base's configurations that the current matrix no longer runs are
# listed by name and left out of that comparison (it needs jq).
#
# The base is materialised with `git archive` into a temporary directory that
# is removed on exit: the same committed-files-only view the benchmark
# pipeline builds from, and nothing is registered in .git.
set -euo pipefail

base="${1:?usage: scripts/counts-gate.sh <base-ref>}"
cd "$(git rev-parse --show-toplevel)"
git rev-parse --verify --quiet "$base^{commit}" >/dev/null || {
	echo "counts-gate: $base is not a commit" >&2
	exit 2
}

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

rerecord=false
if moved="$(git diff --name-only --diff-filter=DMR "$base" -- | grep -E '(^|/)[A-Z]+_v[0-9]+\.json$|^BENCHMARK\.json$')"; then
	rerecord=true
	echo "counts-gate: the diff from $base re-records:" $moved
	if old="$(git ls-tree --name-only "$base" | grep -E '^EVENTS_v[0-9]+\.json$')" && grep -qE '^EVENTS_v[0-9]+\.json$' <<<"$moved"; then
		# The base's digests under the current file's version, so -compare
		# measures the matrix instead of rejecting the envelope.
		version="$(grep -oE '"version": [0-9]+' EVENTS_v*.json)"
		git show "$base:$old" | sed -E "0,/\"version\": [0-9]+/s//$version/" >"$tmp/events.all.json"
		# -compare accepts only the current matrix's configurations (the
		# committed file holds exactly those): drop the base's others,
		# by name.
		keep='.args as $a | $cur[0].points | any(.args == $a)'
		jq -r --slurpfile cur EVENTS_v*.json ".points[] | select(($keep) | not) | .args" "$tmp/events.all.json" >"$tmp/events.dropped"
		if [ -s "$tmp/events.dropped" ]; then
			echo "counts-gate: $base's $old configurations no longer in the matrix, not compared:"
			sed 's/^/  gctrace /' "$tmp/events.dropped"
		fi
		jq --slurpfile cur EVENTS_v*.json ".points |= map(select($keep))" "$tmp/events.all.json" >"$tmp/events.json"
		echo "counts-gate: gctrace -events configurations that moved since $base's $old:"
		go run ./cmd/gcbench -compare "$tmp/events.json" 2>&1 >/dev/null | sed -e '/^exit status/d' -e 's/^gcbench: /  /' || true
	fi
fi

mkdir "$tmp/base"
git archive "$base" | tar -x -C "$tmp/base"

pass() { # pass <checkout> <out-file>
	(cd "$1" && bash benchmark/run.sh -trace 1 -rounds 2 -quick -out "$2" >"$2.log" 2>&1) || {
		cat "$2.log" >&2
		echo "counts-gate: the traced pass failed in $1" >&2
		exit 1
	}
}
pass "$tmp/base" "$tmp/base.jsonl"
pass "$PWD" "$tmp/tree.jsonl"

status=0
bash benchmark/run.sh -compare "$tmp/base.jsonl" "$tmp/tree.jsonl" >"$tmp/compare.out" 2>&1 || status=$?
grep -E 'identical|DIFFERENT|^benchmark:' "$tmp/compare.out" || true
if $rerecord; then
	echo "counts-gate: counts and model.* may move with a re-record; shown above, not gated"
	exit 0
fi
if [ "$status" -ne 0 ] || grep -q DIFFERENT "$tmp/compare.out" || ! grep -q identical "$tmp/compare.out"; then
	echo "counts-gate: counts or model.* differ from $base" >&2
	exit 1
fi
echo "counts-gate: every count and model.* value matches $base"
