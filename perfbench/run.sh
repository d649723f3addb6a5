#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload drive --seed 1 --seconds 20 --trace 0
#
# Build output, the Go build cache and temporary files stay inside
# the checkout, under $CARGO_TARGET_DIR (default .bench_build). Build
# messages go to stderr; the last line of stdout is the JSON result.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/gocache" "$build/gotmp" "$build/gomodcache" "$build/config"
export GOCACHE=$build/gocache GOTMPDIR=$build/gotmp GOMODCACHE=$build/gomodcache
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off GOENV=off
# The go command keeps its telemetry counters under the user config
# directory; point that inside the checkout too.
export XDG_CONFIG_HOME=$build/config

(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
