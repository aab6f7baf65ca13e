#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the checkout root
# (Go build cache included, so nothing is written outside the checkout) and
# runs it from the checkout root with the arguments given.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/tfmcc-bench" .)
cd "$root"
exec "$build/tfmcc-bench" "$@"
