#!/usr/bin/env bash
# Builds the fleet benchmark from source into .bench_build/ under the
# checkout root (Go's build cache lives there too, so a run reads and
# writes nothing outside the checkout) and runs it with the arguments
# given. Run it from the repository root:
#
#   bash bench/run.sh --workload city_search --seed 1 --seconds 10 --trace 0
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -C "$root/bench" -buildvcs=false -o "$build/fleetbench" .
exec "$build/fleetbench" "$@"
