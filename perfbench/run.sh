#!/usr/bin/env bash
# Builds the benchmark from source and runs it, forwarding every
# argument:
#
#   bash perfbench/run.sh --workload repro-quick --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The Go build cache, the binary and
# the go command's own config and telemetry files stay under
# .bench_build/ in the working directory, so nothing is written outside
# it.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/go-cache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local

go build -o "$out/perfbench" ./perfbench
exec "$out/perfbench" "$@"
