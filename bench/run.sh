#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Everything the build writes (Go build cache included) stays under
# .bench_build/ at the root of the checkout; the program itself writes only
# bench/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
if [ ! -f "$root/go.mod" ]; then
	echo "bench: $root is not a checkout of the repository (no go.mod): nothing to benchmark" >&2
	exit 2
fi
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/vectorh-bench" .)
cd "$root"
exec "$build/vectorh-bench" "$@"
