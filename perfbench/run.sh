#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload extract-lulesh --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run leave behind goes under .bench_build/
# in the current directory: the binary, the Go build cache, temporary
# cache directories and trace files.
set -euo pipefail

out="$PWD/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config" "$out/tmp"

# Keep the toolchain inside the checkout: no downloads, no user config,
# no build cache or telemetry outside .bench_build.
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false GOENV=off GOWORK=off
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomod"
export XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp"

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
