#!/usr/bin/env bash
# fma-check.sh: fail if the compiler fuses a floating-point multiply and add
# anywhere in the simulation's code on an architecture that can.
#
# The Go spec lets a compiler fuse x*y + z into one rounding unless an
# explicit float64(...) conversion rounds the product first. amd64's backend
# never fuses; arm64's, ppc64le's and s390x's do, so an unrounded product on
# a virtual-result path makes results architecture-dependent. This
# cross-compiles the simulation packages for those three with -S and fails
# on any fused multiply-add or multiply-subtract attributed to a source line
# of this module, listing each. About 20 s per architecture (-a recompiles
# the standard library, so that every package is listed).
#
# Usage: scripts/fma-check.sh   (from anywhere in the repository)
set -euo pipefail

cd "$(dirname "$0")/.."
pkgs=(./internal/workload ./internal/core ./internal/numa ./internal/heap ./internal/vtime)
scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT

status=0
for arch in arm64 ppc64le s390x; do
	asm="$scratch/$arch.s"
	if ! GOARCH=$arch go build -a -trimpath -gcflags='repro/...=-S' -o /dev/null "${pkgs[@]}" 2>"$asm"; then
		cat "$asm" >&2
		echo "fma-check: the $arch build failed" >&2
		exit 1
	fi
	# A listing line is: TAB "pc offset (file:line)" TAB mnemonic TAB operands.
	# An empty listing would make the check vacuous.
	if ! grep -q '(repro/internal/workload/' "$asm"; then
		echo "fma-check: no $arch listing of internal/workload" >&2
		exit 1
	fi
	fused=$(awk -F'\t' '$3 ~ /^FN?M(ADD|SUB)[SD]?$/ && match($2, /\(repro\/[^)]*\)/) {
		print substr($2, RSTART + 1, RLENGTH - 2) ": " $3
	}' "$asm" | sort -u)
	if [ -n "$fused" ]; then
		echo "fma-check: $arch fuses at:" >&2
		sed 's/^/  /' <<<"$fused" >&2
		status=1
	else
		echo "fma-check: $arch: no fused multiply-add"
	fi
done
exit $status
