#!/usr/bin/env bash
# Builds the benchmark from the source tree it runs in and runs it. Run it
# from the repository root; every argument is passed to the benchmark:
#
#   bash perfbench/run.sh --workload sim-paper --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files and the binary all stay under
# .bench_build/ in the current directory. The build needs the repository
# module one directory up (perfbench/go.mod replaces it with ../), so the
# script fails, printing no result, when run from a copy of the benchmark
# alone.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/go-cache" "$out/go-tmp" "$out/go-path" "$out/config"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/go-tmp" GOPATH="$out/go-path" \
	XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go -C "$root/perfbench" build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
