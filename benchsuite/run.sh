#!/usr/bin/env bash
# Builds the campaign benchmark from source and runs it. Run from the
# repository root; arguments pass through to the benchmark:
#
#   bash benchsuite/run.sh --workload paper-850 --seed 1 --seconds 15 --trace 0
#
# Build outputs, the Go build cache, Go's own config and telemetry files,
# and temporary files all stay under .bench_build/ in the current
# directory.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd benchsuite && go build -o "$build/benchsuite" .)
exec "$build/benchsuite" "$@"
