#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it with
# the given arguments. Run from the repository root:
#
#	bash perfbench/run.sh --workload fleet-stream --seed 1 --seconds 20 --trace 0
#
# The Go build cache, module cache and the go command's own config
# (telemetry counters) live under .bench_build/, so the benchmark writes
# nothing outside the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOENV=off CGO_ENABLED=0

go build -C "$root/perfbench" -o "$out/perfbench" .
exec "$out/perfbench" "$@"
