#!/usr/bin/env bash
# Builds perfbench from this checkout and runs it with the given arguments.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload hot_read --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (binary, Go build cache, go telemetry) stays
# under .bench_build/ in the checkout; nothing is fetched from the network.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off

(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .) >&2
exec "$build/bin/perfbench" "$@"
