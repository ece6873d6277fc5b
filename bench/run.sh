#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ at the root of the checkout and
# runs it with the given arguments. The Go build cache and the go command's
# own configuration directory (its telemetry counters) are kept there too, so
# that a run writes nothing outside the checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off
go build -C bench -o "$out/gem5bench" .
exec "$out/gem5bench" "$@"
