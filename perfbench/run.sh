#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout's sources and runs it
# with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-mixed --seed 1 --trace 0
#
# Build products, the Go build and module caches and the go command's
# configuration directory stay under the build directory
# ($CARGO_TARGET_DIR, default .bench_build), so nothing is written outside
# the checkout.
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/gotmp"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOFLAGS=
export GOWORK=off
export GOTOOLCHAIN=local
export GOPROXY=off
mkdir -p "$GOTMPDIR"

(cd perfbench && go build -o "$build/perfbench" .)
export PERFBENCH_WORK="$build/work"
exec "$build/perfbench" "$@"
