#!/usr/bin/env bash
# Builds the figure-regeneration benchmark from the checkout's sources and
# runs it with the given arguments. Run from the root of a checkout:
#
#   bash perfbench/run.sh --workload benign --seed 1 --seconds 50 --trace 0
#
# Everything the build and the runs write stays under .bench_build/ in the
# checkout: the Go build cache, temporary files, the binary and the audit
# sinks. GOTOOLCHAIN/GOPROXY keep the go command from reaching the network;
# XDG_CONFIG_HOME keeps its telemetry counters and env file there too.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" "$@"
