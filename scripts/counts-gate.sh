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
# declared that the model moved; the gate then passes with a notice. A new
# kind's first baseline file, added beside unchanged ones, re-records nothing.
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

if moved="$(git diff --name-only --diff-filter=DMR "$base" -- | grep -E '(^|/)[A-Z]+_v[0-9]+\.json$|^BENCHMARK\.json$')"; then
	echo "counts-gate: the diff from $base re-records:" $moved
	echo "counts-gate: counts and model.* are expected to move; not compared"
	exit 0
fi

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
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
if [ "$status" -ne 0 ] || grep -q DIFFERENT "$tmp/compare.out" || ! grep -q identical "$tmp/compare.out"; then
	echo "counts-gate: counts or model.* differ from $base" >&2
	exit 1
fi
echo "counts-gate: every count and model.* value matches $base"
