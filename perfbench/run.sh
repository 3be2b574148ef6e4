#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Run it from the
# root of a checkout:
#
#   bash perfbench/run.sh --workload olap_power --seed 1 --seconds 15 --trace 0
#
# The build, Go's caches and the trace dumps stay under .bench_build/ in the
# checkout. The last line of standard output is the JSON result.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" --out "$build/perfbench-out" "$@"
