#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the given arguments:
#
#   bash perfbench/run.sh --workload simulate|engine|dbspd --seed N \
#        --seconds S --trace 0|1
#
# Run it from the repository root. Every file the build and the run
# write (the Go build cache and temporary files, the toolchain's
# telemetry counters, the binary, the span files) stays under
# .bench_build/, and the toolchain is kept off the network: the module
# has no dependencies outside the repository.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOSUMDB=off GOFLAGS= CGO_ENABLED=0
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
