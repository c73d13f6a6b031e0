#!/usr/bin/env bash
# Builds the benchmark inside the checkout (build cache included, so nothing
# outside the checkout is written) and runs it from the checkout root.
# Usage: bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/overd-benchmark" .) >&2
cd "$root"
exec "$build/overd-benchmark" "$@"
