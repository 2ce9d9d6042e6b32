#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Everything the build writes (binary, Go build cache) stays under
# .bench_build/ at the root of the checkout; nothing outside it is touched.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/numagc-bench" .)
exec "$build/numagc-bench" "$@"
