#!/usr/bin/env bash
# Builds the benchmark driver from the checkout's sources and runs one
# workload:
#
#   bash perfbench/run.sh --workload scorecard --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Every build artifact, the Go build
# cache and the traced run's span files stay under .bench_build/ in the
# current directory. Without the repository's sources beside perfbench/
# the build fails and the script exits non-zero before printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOENV=off GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"
