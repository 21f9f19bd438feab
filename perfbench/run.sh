#!/usr/bin/env bash
# Builds the end-to-end benchmark from the sources of this checkout and
# runs it with the given arguments, for example:
#
#   bash perfbench/run.sh --workload route-stream --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write (Go build cache, binary,
# traced-run spans) stays under .bench_build/ at the checkout root.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOWORK=off
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off

go -C "$here" build -o "$out/perfbench" .
exec "$out/perfbench" -trace-dir "$out/traces" "$@"
