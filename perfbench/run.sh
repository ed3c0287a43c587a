#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload sweep-quick --seed 1 --seconds 30 --trace 0
#
# Run it from the root of a checkout. Everything the build writes — the Go
# build cache, temporary files and the binary — stays under .bench_build/
# in the checkout. The benchmark is a module of its own that imports the
# program from the checkout root, so the build fails when the program is
# absent.
set -euo pipefail

root=$PWD
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOMODCACHE="$out/gomod"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
